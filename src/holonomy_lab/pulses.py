"""Pulse-schedule synthesis for the three gate families.

A gate is specified by the target rotation U1(theta, phi, gamma) =
exp(-i gamma/2 n.sigma) on the {|g>,|f>} pair, with axis
n = (sin(theta)cos(phi), sin(theta)sin(phi), cos(theta)).  theta and
phi fix the bright/dark frame; the schedule then steers the {|b>,|e>}
two-level system through a loop that imprints the holonomy gamma.

Phase convention: segment phases are the rotation azimuths of the
composite-pulse construction.  The physical drive phase entering
H = (Omega/2) e^{i phi1} |b><e| + h.c. is phi1 = -phase for segmented
schedules (the composite azimuth is measured with opposite handedness
on the {b,e} Bloch sphere).  Parametric (dynamical) schedules store
phi1 directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import qmath

SCHEME_SR = "sr-nhqc"
SCHEME_NHQC = "nhqc"
SCHEME_DYNAMICAL = "dynamical"
SCHEMES = (SCHEME_SR, SCHEME_NHQC, SCHEME_DYNAMICAL)

# Default gate durations and integration steps (ns).  The two-qubit
# gate drives one Fock block selectively, so it runs far slower than the
# dispersive shift; it has no dynamical variant.
DEFAULT_TAU = {SCHEME_SR: 120.0, SCHEME_NHQC: 60.0, SCHEME_DYNAMICAL: 105.0}
DEFAULT_TAU_TWO_QUBIT = {SCHEME_SR: 2760.0, SCHEME_NHQC: 1380.0}
DEFAULT_STEP_1Q = 0.05
DEFAULT_STEP_2Q = 0.5


@dataclass(frozen=True)
class GateSpec:
    """Target holonomic rotation angles (rad)."""

    theta: float
    phi: float
    gamma: float

    def axis(self) -> np.ndarray:
        return np.array([np.sin(self.theta) * np.cos(self.phi),
                         np.sin(self.theta) * np.sin(self.phi),
                         np.cos(self.theta)])

    def target_unitary(self) -> np.ndarray:
        """U1 = exp(-i gamma/2 n.sigma) on the ordered basis (|g>, |f>)."""
        n = self.axis()
        ns = n[0] * qmath.PAULI_X + n[1] * qmath.PAULI_Y + n[2] * qmath.PAULI_Z
        c, s = np.cos(self.gamma / 2), np.sin(self.gamma / 2)
        return c * np.eye(2) - 1j * s * ns


# The four named benchmark gates.
GATE_X = GateSpec(np.pi / 2, 0.0, np.pi)
GATE_Y = GateSpec(np.pi / 2, np.pi / 2, np.pi)
GATE_X2 = GateSpec(np.pi / 2, 0.0, np.pi / 2)
GATE_Y2 = GateSpec(np.pi / 2, np.pi / 2, np.pi / 2)
NAMED_GATES = {"X": GATE_X, "Y": GATE_Y, "X/2": GATE_X2, "Y/2": GATE_Y2}


@dataclass(frozen=True)
class PulseSegment:
    """One constant-phase rotation with a cosine envelope: area (rad),
    azimuth phase (rad), duration (ns)."""

    area: float
    phase: float
    duration: float


def sample_envelope(seg: PulseSegment, t):
    """Instantaneous Rabi amplitude Omega(t) in rad/ns, area-normalized.

    Omega = (area/T)(1 - cos(2 pi t / T)), zero at both ends.  t is a
    time within the segment or an array of them.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12) or np.any(t > seg.duration + 1e-12):
        raise ValueError(f"t={t} outside segment of duration {seg.duration}")
    return seg.area / seg.duration * (1.0 - np.cos(2 * np.pi * t / seg.duration))


@dataclass(frozen=True)
class PulseSchedule:
    """Drive program for one gate: either segments or a parametric sampler.

    drive(t) returns (Omega, phi1) ready for the rotating-frame
    Hamiltonian; amp_scale carries an injected Rabi-error factor (1+eps).
    """

    scheme: str
    gate: GateSpec
    tau: float
    segments: tuple[PulseSegment, ...] = ()
    sampler: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = field(
        default=None, repr=False)
    amp_scale: float = 1.0

    def __post_init__(self):
        if self.segments:
            total = sum(s.duration for s in self.segments)
            if abs(total - self.tau) > 1e-9:
                raise ValueError("segment durations do not sum to tau")
        elif self.sampler is None:
            raise ValueError("schedule needs segments or a sampler")

    def _segment_of(self, t: np.ndarray) -> np.ndarray:
        """Segment of every time in t.

        A time on a boundary belongs to the segment that ends there, and
        times past the last end (within drive's tolerance) to the last
        segment.  Sampled schedules split into halves at tau/2.
        """
        if not self.segments:
            return (t > self.tau / 2).astype(int)
        ends = np.cumsum([seg.duration for seg in self.segments])
        return np.minimum(np.searchsorted(ends + 1e-12, t), len(ends) - 1)

    def drive(self, t):
        """(Omega(t) in rad/ns, drive phase phi1(t) in rad).

        t is one time or an array of times; Omega and phi1 come back with
        the shape of t, so a whole time grid is sampled in one call.
        """
        shape = np.shape(t)
        # One time goes through the same array arithmetic as a grid, so
        # both give the same bits.
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all((t >= 0.0) & (t <= self.tau + 1e-9)):
            raise ValueError(f"t={t} outside [0, {self.tau}]")
        if self.sampler is not None:
            om, phi1 = self.sampler(np.minimum(t, self.tau))
            om = self.amp_scale * om
        else:
            # Past the last end the time is clipped to it, where the
            # envelope is zero.
            index = self._segment_of(t)
            om, phi1 = np.empty(t.shape), np.empty(t.shape)
            t0 = 0.0
            for i, seg in enumerate(self.segments):
                here = index == i
                om[here] = self.amp_scale * sample_envelope(
                    seg, np.clip(t[here] - t0, 0.0, seg.duration))
                phi1[here] = -seg.phase
                t0 += seg.duration
        return om.reshape(shape)[()], phi1.reshape(shape)[()]


def build_sr_nhqc(gate: GateSpec, tau: float = DEFAULT_TAU[SCHEME_SR]) -> PulseSchedule:
    """Six-segment superrobust schedule.

    Segment (area, phase, duration/tau):
    (pi/2, gamma-pi, 1/8), (pi, gamma-pi/2, 1/4), (pi/2, gamma-pi, 1/8),
    (pi/2, 0, 1/8), (pi, pi/2, 1/4), (pi/2, 0, 1/8).
    All six accumulated drive integrals D_mn vanish, which is what buys
    the quartic error suppression.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    g = gate.gamma
    spec = [(np.pi / 2, g - np.pi, tau / 8),
            (np.pi, g - np.pi / 2, tau / 4),
            (np.pi / 2, g - np.pi, tau / 8),
            (np.pi / 2, 0.0, tau / 8),
            (np.pi, np.pi / 2, tau / 4),
            (np.pi / 2, 0.0, tau / 8)]
    segs = tuple(PulseSegment(a, p, d) for a, p, d in spec)
    return PulseSchedule(SCHEME_SR, gate, tau, segments=segs)


def build_nhqc(gate: GateSpec, tau: float = DEFAULT_TAU[SCHEME_NHQC]) -> PulseSchedule:
    """Conventional two-pi-pulse (orange-slice) holonomic schedule.

    Two pi-area rotations whose azimuths differ by gamma - pi send
    |b> -> e^{i gamma}|b> while the dark state idles.  Parallel
    transport holds (d11 = d22 = 0) but the bright-ancilla cross term
    D12 does not vanish, so the robustness stays second order.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    segs = (PulseSegment(np.pi, gate.gamma - np.pi, tau / 2),
            PulseSegment(np.pi, 0.0, tau / 2))
    return PulseSchedule(SCHEME_NHQC, gate, tau, segments=segs)


def _dynamical_controls(tau: float, gamma_prime: float
                        ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Vectorized sampler for the two-part dynamical path.

    chi = pi sin^2(pi t/tau) on both halves; the auxiliary phase is
    varphi = -(2/3)sin^3(chi) on [0, tau/2] and (2/3)sin^3(chi) -
    gamma' on [tau/2, tau].  Controls follow from
        phi1 = atan(chi' cot(chi) / varphi') - varphi,
        Omega = -chi' / sin(phi1 + varphi).
    The 0/0 forms at chi in {0, pi} are replaced by their analytic
    limits (phi1 + varphi -> -+pi/2), and |Omega| < 1e-9 is clipped to 0.
    """

    def sampler(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        chi = np.pi * np.sin(np.pi * t / tau) ** 2
        chidot = (np.pi ** 2 / tau) * np.sin(2 * np.pi * t / tau)
        s = np.sin(chi)
        first = t <= tau / 2
        sign = np.where(first, -1.0, 1.0)
        varphi = sign * (2.0 / 3.0) * s ** 3 - np.where(first, 0.0, gamma_prime)
        varphidot = sign * 2.0 * s ** 2 * np.cos(chi) * chidot
        limit = (np.abs(s) < 1e-9) | (np.abs(varphidot) < 1e-30)
        with np.errstate(divide="ignore", invalid="ignore"):
            # sign * pi/2 is the limit of atan(-+inf)
            ang = np.where(limit, sign * np.pi / 2,
                           np.arctan(chidot / np.tan(chi) / varphidot))
        omega = -chidot / np.sin(ang)
        omega = np.where(np.abs(omega) < 1e-9, 0.0, omega)
        if not np.all(np.isfinite(omega)):
            raise FloatingPointError(f"dynamical sampler produced Omega={omega} at t={t}")
        return omega, ang - varphi

    return sampler


def build_dynamical(gate: GateSpec,
                    tau: float = DEFAULT_TAU[SCHEME_DYNAMICAL]) -> PulseSchedule:
    """Purely dynamical two-segment gate along the sin^2 ramp.

    The loop applies the phase pi + gamma' to the bright state; setting
    gamma' = gamma - pi makes the computational action equal
    U1(theta, phi, gamma).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    gamma_prime = gate.gamma - np.pi
    return PulseSchedule(SCHEME_DYNAMICAL, gate, tau,
                         sampler=_dynamical_controls(tau, gamma_prime))


def build_schedule(gate: GateSpec, scheme: str, tau: Optional[float] = None) -> PulseSchedule:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    tau = DEFAULT_TAU[scheme] if tau is None else tau
    if scheme == SCHEME_SR:
        return build_sr_nhqc(gate, tau)
    if scheme == SCHEME_NHQC:
        return build_nhqc(gate, tau)
    return build_dynamical(gate, tau)


def rabi_scale(epsilon: float) -> float:
    """Drive amplitude factor 1 + epsilon of a fractional Rabi error."""
    if abs(epsilon) > 1.0:
        raise ValueError("|epsilon| must not exceed 1")
    return 1.0 + epsilon


def apply_rabi_error(schedule: PulseSchedule, epsilon: float) -> PulseSchedule:
    """Scale every drive amplitude by (1 + epsilon); phases untouched."""
    return replace(schedule, amp_scale=schedule.amp_scale * rabi_scale(epsilon))


def schedule_to_csv(schedule: PulseSchedule, dt: float = 0.1) -> str:
    """CSV dump of the sampled drive: t_ns, Omega_rad_per_ns, phi1_rad, segment_index."""
    times = np.minimum(np.arange(int(round(schedule.tau / dt)) + 1) * dt, schedule.tau)
    omega, phi1 = schedule.drive(times)
    return qmath.csv_text(["t_ns", "Omega_rad_per_ns", "phi1_rad", "segment_index"],
                          "%.6g,%.12g,%.12g,%d",
                          np.column_stack((times, omega, phi1, schedule._segment_of(times))))
