"""Fading coefficient laws with exact amplitude-moment metadata.

Every analytic baseline in :mod:`bandspec.closed_forms` is a function of a
few amplitude power moments ``m_i = E|h|^i``, the complex mean ``E[h]``, the
kurtosis ``m_4 / m_2^2`` and the log-amplitude mean ``E log2|h|`` of an
individual fading coefficient.  These are therefore carried as exact closed
forms alongside the sampler, never estimated from draws.

All laws are normalized to a known second amplitude moment; for the complex
Gaussian ("rayleigh") law that normalization is ``E|h|^2 = 1``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import exp1, gamma as _gamma_fn, hyp1f1

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
        if self.kind == "rician":
            if self.s2 < 0:
                raise ValueError("rician diffuse variance s2 must be >= 0")
            if self.s2 == 0 and self.nu == 0:
                raise ValueError("rician with nu=0, s2=0 is an atom at zero")

    # -- sampling -----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size=None):
        """Draw i.i.d. coefficients from the law.

        Returns a complex scalar when ``size`` is None, else a complex array.
        Identical generators produce identical draw sequences.
        """
        if self.kind == "deterministic":
            out = np.ones(size if size is not None else (), dtype=complex)
        elif self.kind == "rayleigh":
            out = _standard_complex_normal(rng, size)
        elif self.kind == "uniform-phase":
            out = np.exp(2j * np.pi * rng.random(size))
        else:  # rician
            out = self.nu + np.sqrt(self.s2) * _standard_complex_normal(rng, size)
        if size is None:
            return complex(out)
        return out

    # -- exact moment metadata ----------------------------------------------

    def amplitude_moment(self, order: int) -> float:
        """Exact amplitude power moment ``E|h|^order`` (no sampling).

        Raises :class:`MomentUnavailableError` when no closed form is known
        for the (kind, order) pair.
        """
        if order < 1 or order != int(order):
            raise ValueError("moment order must be a positive integer")
        order = int(order)
        if self.kind in ("deterministic", "uniform-phase"):
            return 1.0
        if self.kind == "rayleigh":
            # |h|^2 is unit-mean exponential: E|h|^i = Gamma(i/2 + 1).
            return float(_gamma_fn(order / 2 + 1))
        if self.kind == "rician":
            if self.s2 == 0:
                return float(abs(self.nu) ** order)
            # Rice amplitude moments via the confluent hypergeometric function.
            ratio = abs(self.nu) ** 2 / self.s2
            val = (
                self.s2 ** (order / 2)
                * _gamma_fn(order / 2 + 1)
                * hyp1f1(-order / 2, 1.0, -ratio)
            )
            if not np.isfinite(val):
                raise MomentUnavailableError(
                    f"moment order {order} unavailable for {self.tag}"
                )
            return float(val)
        raise MomentUnavailableError(f"moment order {order} unavailable for {self.kind}")

    def complex_mean(self) -> complex:
        """``E[h]``; the coefficient variance is ``m_2 - |E[h]|^2``."""
        if self.kind == "deterministic":
            return 1.0 + 0.0j
        if self.kind == "rician":
            return complex(self.nu)
        return 0.0 + 0.0j

    def kurtosis(self) -> float:
        """Amplitude kurtosis ``m_4 / m_2^2`` (always >= 1)."""
        m2 = self.amplitude_moment(2)
        m4 = self.amplitude_moment(4)
        return m4 / m2**2

    def log2_amplitude_mean(self) -> float:
        """``E[log2 |h|]`` in closed form, for every law.

        For Rician ``h = nu + CN(0, s2)``,
        ``E ln|h|^2 = ln s2 + ln lam + E1(lam)`` with ``lam = |nu|^2 / s2``
        (Lapidoth & Moser, IEEE Trans. IT 2003); ``ln lam + E1(lam)`` tends
        to ``-euler_gamma`` as ``nu -> 0``, and ``s2 = 0`` is the atom ``nu``.
        """
        if self.kind in ("deterministic", "uniform-phase"):
            return 0.0
        if self.kind == "rayleigh":
            # E[ln |h|^2] = -euler_gamma for a unit-mean exponential power.
            return -_EULER_GAMMA / (2.0 * np.log(2.0))
        lam = abs(self.nu) ** 2 / self.s2 if self.s2 > 0 else np.inf
        if lam == np.inf:
            # s2 = 0 is the atom nu; an s2 so small that lam overflows leaves
            # E1(lam) = 0: both give log2|nu|
            return float(np.log2(abs(self.nu)))
        tail = np.log(lam) + exp1(lam) if lam > 0 else -_EULER_GAMMA
        return float((np.log(self.s2) + tail) / (2.0 * np.log(2.0)))

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
    tag = tag.strip()
    if tag in ("deterministic", "rayleigh", "uniform-phase"):
        return FadingSpec(tag)
    if tag.startswith("rician:"):
        fields = {}
        for part in tag[len("rician:"):].split(","):
            key, _, value = part.partition("=")
            fields[key.strip()] = value.strip()
        try:
            return rician(complex(fields["nu"]), float(fields["s2"]))
        except KeyError as exc:
            raise ValueError(f"rician tag missing field {exc}") from exc
    raise ValueError(f"unrecognized fading tag {tag!r}")


def _tag_number(x: float) -> str:
    """Decimal that reads back as exactly ``x``: the ``:g`` form when that is
    exact (so short values keep their tags and config hashes), else ``repr``."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def _standard_complex_normal(rng: np.random.Generator, size):
    shape = () if size is None else size
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)
