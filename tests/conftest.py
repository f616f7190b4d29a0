import hypothesis
import numpy as np
import pytest

from schromax import spectral

hypothesis.settings.register_profile(
    "numerics", deadline=None, max_examples=50,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("numerics")


def single_pass_grid_sup(base, xi_pow, t_values, dt):
    """spectral._uniform_grid_sup as one complex128 pass over every time:
    the chunk starting at t0 is the step table times base e^{i t0 xi_pow},
    transformed, reduced by modulus and max.  The two-pass sup must equal
    it bit for bit."""
    n = base.size
    sup = np.zeros(n)
    support = np.flatnonzero(base)
    if support.size == 0:
        return sup
    lo, hi = support[0], support[-1] + 1
    distinct, where = np.unique(xi_pow[lo:hi], return_inverse=True)
    rows = min(spectral._TIME_CHUNK, t_values.size)
    table = spectral._step_table(distinct, where, dt, rows)
    spec = np.zeros((rows, n), dtype=np.complex128)
    field = np.empty((rows, n), dtype=np.complex128)
    modulus = np.empty((rows, n))
    for start in range(0, t_values.size, spectral._TIME_CHUNK):
        ts = t_values[start:start + spectral._TIME_CHUNK]
        m = ts.size
        first = base[lo:hi] * np.exp(1j * ts[0] * distinct)[where]
        np.multiply(table[:m], first, out=spec[:m, lo:hi])
        np.fft.ifft(spec[:m], axis=1, out=field[:m])
        np.abs(field[:m], out=modulus[:m])
        np.maximum(sup, modulus[:m].max(axis=0), out=sup)
    return sup


@pytest.fixture
def single_pass(monkeypatch):
    """call(fn, *args, **kwargs): fn's result with spectral._uniform_grid_sup
    replaced by single_pass_grid_sup."""
    def call(fn, *args, **kwargs):
        with monkeypatch.context() as patched:
            patched.setattr(spectral, "_uniform_grid_sup", single_pass_grid_sup)
            return fn(*args, **kwargs)
    return call


@pytest.fixture
def moduli_rows(monkeypatch):
    """{dtype name: rows} that spectral._moduli transforms during the test:
    complex64 rows are screened times, complex128 rows recomputed ones."""
    rows = {"complex64": 0, "complex128": 0}
    moduli = spectral._moduli

    def counted(table_rows, first, lo, n):
        rows[first.dtype.name] += table_rows.shape[0]
        return moduli(table_rows, first, lo, n)
    monkeypatch.setattr(spectral, "_moduli", counted)
    return rows
