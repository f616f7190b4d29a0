import hypothesis
import numpy as np
import pytest

from schromax import maximal, radial, spectral

hypothesis.settings.register_profile(
    "numerics", deadline=None, max_examples=50,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("numerics")


def single_pass_grid_sup(base, xi_pow, t_values, dt):
    """spectral.sup_over_times on a uniform grid, before the 1/dx scale, as
    one complex128 pass over every time: the chunk starting at t0 is the
    step table times base e^{i t0 xi_pow}, transformed, reduced by modulus
    and max.  The screened sup must equal it bit for bit."""
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


def single_pass_arbitrary_sup(F, t_values, a):
    """spectral.sup_over_times on times that are not uniform as one complex128
    pass over every time: one exp per distinct |xi|^a on the whole grid and
    time, the full-width inverse FFT, and the 1/dx scale before the max.
    The screened sup must equal it bit for bit."""
    g = F.grid
    base = spectral.alternating_signs(g.point_count) * F.coefficients
    distinct, where = np.unique(np.abs(g.xi_nodes()) ** a, return_inverse=True)
    sup = np.zeros(g.point_count)
    for start in range(0, t_values.size, spectral._TIME_CHUNK):
        ts = t_values[start:start + spectral._TIME_CHUNK]
        spec = base[None, :] * np.exp(1j * ts[:, None] * distinct[None, :])[:, where]
        fields = np.abs(np.fft.ifft(spec, axis=1)) / g.dx
        np.maximum(sup, fields.max(axis=0), out=sup)
    return sup


def single_pass_sup(F, t_values, a, level=None):
    """spectral.sup_over_times as one complex128 pass over every time:
    single_pass_grid_sup on a uniform grid, else single_pass_arbitrary_sup.
    A level is accepted and ignored: every time is evaluated at every node."""
    t_values = np.asarray(t_values, dtype=float)
    dt = spectral._uniform_step(t_values)
    if dt is None:
        return single_pass_arbitrary_sup(F, t_values, a)
    base = spectral.alternating_signs(F.grid.point_count) * F.coefficients
    xi_pow = np.abs(F.grid.xi_nodes()) ** a
    return single_pass_grid_sup(base, xi_pow, t_values, dt) / F.grid.dx


@pytest.fixture
def single_pass(monkeypatch):
    """call(fn, *args, **kwargs): fn's result with sup_over_times replaced by
    single_pass_sup in every module that binds it; fn may be
    spectral.sup_over_times itself."""
    screened = spectral.sup_over_times

    def call(fn, *args, **kwargs):
        with monkeypatch.context() as patched:
            for module in (spectral, maximal, radial):
                patched.setattr(module, "sup_over_times", single_pass_sup)
            return (single_pass_sup if fn is screened else fn)(*args, **kwargs)
    return call


@pytest.fixture
def moduli_rows(monkeypatch):
    """{dtype name: rows} that spectral._moduli transforms during the test:
    complex64 rows are screened times, complex128 rows recomputed ones."""
    rows = {"complex64": 0, "complex128": 0}
    moduli = spectral._moduli

    def counted(spectra, fields, out):
        rows[spectra.dtype.name] += spectra.shape[0]
        return moduli(spectra, fields, out)
    monkeypatch.setattr(spectral, "_moduli", counted)
    return rows
