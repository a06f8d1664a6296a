"""Fading coefficient laws with exact moment metadata.

Every analytic baseline in :mod:`bandspec.closed_forms` is a function of the
mixed moments ``E[h^a conj(h)^b]`` and the log-amplitude mean ``E log2|h|``
of an individual fading coefficient.  These are therefore carried as exact
closed forms alongside the sampler, never estimated from draws.  Every law
but uniform phase is a Rician law ``nu + CN(0, s2)`` (Rayleigh ``(0, 1)``,
deterministic ``(1, 0)``), so one Rician formula gives its mixed moments;
uniform phase's are ``[a == b]``.  The amplitude moments and the log mean
read the amplitude only, which for uniform phase is that of ``(1, 0)``
(Lapidoth & Moser, IEEE Trans. IT 2003).

All laws are normalized to a known second amplitude moment; for the complex
Gaussian ("rayleigh") law that normalization is ``E|h|^2 = 1``.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FadingSpec",
    "MomentUnavailableError",
    "DETERMINISTIC",
    "RAYLEIGH",
    "UNIFORM_PHASE",
    "rician",
    "parse_spec_tag",
]

_EULER_GAMMA = float(np.euler_gamma)

_KINDS = ("deterministic", "rayleigh", "uniform-phase", "rician")


class MomentUnavailableError(ValueError):
    """No closed form is implemented for the requested amplitude moment."""


@dataclass(frozen=True)
class FadingSpec:
    """A fading coefficient law together with its exact moment metadata.

    kind:
        ``"deterministic"``  h = 1 always.
        ``"rayleigh"``       h ~ CN(0, 1); amplitude is Rayleigh with
                             ``E|h|^2 = 1``.
        ``"uniform-phase"``  |h| = 1, phase uniform on [0, 2*pi).
        ``"rician"``         h = nu + CN(0, s2), so ``E[h] = nu`` and
                             ``E|h|^2 = |nu|^2 + s2``.

    Instances are immutable and safe to share across workers; random state
    always lives in the caller-supplied generator.
    """

    kind: str
    nu: complex = 0.0
    s2: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fading kind {self.kind!r}")
        if self.kind != "rician" and (self.nu != 0 or self.s2 != 0):
            # ignored by sample and the moments, they would still split its equality
            raise ValueError(f"{self.kind} takes no nu or s2")
        if self.kind == "rician":
            if not (np.isfinite(self.nu) and 0 <= self.s2 < np.inf):
                raise ValueError("rician needs a finite nu and a finite s2 >= 0")
            m2 = self.nu.real * self.nu.real + self.nu.imag * self.nu.imag + self.s2
            if not math.isfinite(m2):  # products: ** and abs(nu) raise OverflowError
                raise ValueError("rician E|h|^2 = |nu|^2 + s2 overflows a double")
            if self.s2 == 0 and self.nu == 0:
                raise ValueError("rician with nu=0, s2=0 is an atom at zero")

    # -- sampling -----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw a complex array of i.i.d. coefficients from the law.

        Identical generators produce identical draw sequences.
        """
        if self.kind == "deterministic":
            return np.ones(size, dtype=complex)
        if self.kind == "uniform-phase":
            # bit for bit exp(2j * pi * rng.random(size)): that product is
            # +0 + 2 pi u i, so only the imaginary parts are drawn
            out = np.zeros(size, dtype=complex)
            for chunk, draws in _buffered_draws(rng.random, (out.reshape(-1).imag,)):
                np.multiply(draws, 2 * np.pi, out=chunk)
            return np.exp(out, out=out)
        out = _standard_complex_normal(rng, size)
        if self.kind == "rician":
            out *= np.sqrt(self.s2)
            out += self.nu
        return out

    # -- exact moment metadata ----------------------------------------------

    def mixed_moment(self, a: int, b: int):
        """Exact ``E[h^a conj(h)^b]`` (a float if ``a == b``; MomentUnavailableError past a double):
        Rician ``sum_j C(a,j) C(b,j) j! s2^j nu^(a-j) conj(nu)^(b-j)``, uniform phase ``[a == b]``."""
        if self.kind == "uniform-phase":
            return float(a == b)
        amplitude, s2 = self._rice
        nu, m = (self.nu if self.kind == "rician" else amplitude), min(a, b)
        try:  # nu^(a-j) conj(nu)^(b-j) = |nu|^2(m-j) nu^(a-m) conj(nu)^(b-m)
            tilt = 1 if a == b else nu ** (a - m) if a > b else nu.conjugate() ** (b - m)
            val = tilt * sum(math.comb(a, j) * math.comb(b, j) * math.factorial(j)
                             * s2 ** j * amplitude ** (2 * (m - j)) for j in range(m, -1, -1))
        except OverflowError:  # Python ** raises where * gives inf
            val = math.inf
        if not cmath.isfinite(val):
            raise MomentUnavailableError(f"moment order {a + b} of {self.tag} overflows")
        return val

    def amplitude_moment(self, order: int) -> float:
        """Exact even amplitude power moment ``E|h|^order`` (no sampling).

        Raises :class:`MomentUnavailableError` for an odd order, which no
        baseline reads, and when the moment overflows a double.
        """
        if order < 1 or order != int(order):
            raise ValueError("moment order must be a positive integer")
        if order % 2:
            raise MomentUnavailableError(
                f"odd moment order {order} of {self.tag}: only even orders are implemented")
        return self.mixed_moment(int(order) // 2, int(order) // 2)

    def log2_amplitude_mean(self) -> float:
        """``E[log2 |h|]`` in closed form, for every law.

        For Rician ``h = nu + CN(0, s2)``,
        ``E ln|h|^2 = ln s2 + ln lam + E1(lam)`` with ``lam = |nu|^2 / s2``
        (Lapidoth & Moser, IEEE Trans. IT 2003); ``ln lam + E1(lam)`` tends
        to ``-euler_gamma`` as ``nu -> 0``, and ``s2 = 0`` is the atom ``nu``.
        """
        nu, s2 = self._rice
        lam = nu ** 2 / s2 if s2 > 0 else np.inf
        if lam == np.inf:
            # s2 = 0 is the atom nu; an s2 so small that lam overflows leaves
            # E1(lam) = 0: both give log2|nu|
            return float(np.log2(nu))
        tail = np.log(lam) + _exp1(lam) if lam > 0 else -_EULER_GAMMA
        return float((np.log(s2) + tail) / (2.0 * np.log(2.0)))

    @property
    def _rice(self) -> tuple[float, float]:
        """``(|nu|, s2)`` of the Rician law with this law's amplitude."""
        if self.kind == "rician":
            return abs(self.nu), self.s2
        return (0.0, 1.0) if self.kind == "rayleigh" else (1.0, 0.0)

    # -- config-tag serialization -------------------------------------------

    @property
    def tag(self) -> str:
        """Stable string tag used by experiment configs; ``parse_spec_tag``
        reads it back to an equal spec."""
        if self.kind == "rician":
            nu = _tag_number(self.nu.real)
            if self.nu.imag != 0:
                imag = _tag_number(self.nu.imag)
                nu += f"{'' if imag.startswith('-') else '+'}{imag}j"
            return f"rician:nu={nu},s2={_tag_number(self.s2)}"
        return self.kind


DETERMINISTIC = FadingSpec("deterministic")
RAYLEIGH = FadingSpec("rayleigh")
UNIFORM_PHASE = FadingSpec("uniform-phase")


def rician(nu: float | complex, s2: float) -> FadingSpec:
    """Rician law with complex mean ``nu`` and diffuse variance ``s2``."""
    return FadingSpec("rician", nu=complex(nu), s2=float(s2))


def parse_spec_tag(tag: str) -> FadingSpec:
    """Parse a config tag: ``deterministic``, ``rayleigh``, ``uniform-phase``,
    or ``rician:nu=<complex>,s2=<float>``."""
    if not isinstance(tag, str):
        raise ValueError(f"fading tag must be a string, got {tag!r}")
    tag = tag.strip()
    if tag in ("deterministic", "rayleigh", "uniform-phase"):
        return FadingSpec(tag)
    if tag.startswith("rician:"):
        pairs = [part.partition("=") for part in tag[len("rician:"):].split(",")]
        fields = {key.strip(): value.strip() for key, _, value in pairs}
        if len(pairs) != 2 or set(fields) != {"nu", "s2"}:
            raise ValueError(f"rician tag needs nu and s2, once each: {tag!r}")
        return rician(complex(fields["nu"]), float(fields["s2"]))
    raise ValueError(f"unrecognized fading tag {tag!r}")


def _tag_number(x: float) -> str:
    """Decimal that reads back as exactly ``x``: the ``:g`` form when that is
    exact (so short values keep their tags and config hashes), else ``repr``."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def _exp1(x):
    """:func:`scipy.special.exp1`, imported by the first call, so that runs
    with no E1 in them (Rayleigh moments, spectra, capacities) never load it."""
    from scipy.special import exp1
    return exp1(x)


# Draws made at a time by the samplers: their scratch buffer is 64 KiB,
# whatever the size drawn.
_DRAW_BUFFER = 8192


def _buffered_draws(draw, targets):
    """``(chunk, draws)`` for consecutive chunks of each equal-length 1-D
    target in turn, with as many ``draw(out=...)`` doubles in one reused
    buffer.  Generator.standard_normal and Generator.random give the same
    stream in chunks as in one call, so the draws are those of one call."""
    buffer = np.empty(min(len(targets[0]), _DRAW_BUFFER))
    for target in targets:
        for start in range(0, len(target), _DRAW_BUFFER):
            chunk = target[start:start + _DRAW_BUFFER]
            yield chunk, draw(out=buffer[:len(chunk)])


def _standard_complex_normal(rng: np.random.Generator, size) -> np.ndarray:
    # bit for bit ``(re + 1j * im) / sqrt(2)``: numpy divides by a real
    # complex scalar by multiplying with its reciprocal
    out = np.empty(size, dtype=complex)
    flat = out.reshape(-1)
    for chunk, draws in _buffered_draws(rng.standard_normal, (flat.real, flat.imag)):
        np.multiply(draws, 1.0 / np.sqrt(2.0), out=chunk)
    return out
