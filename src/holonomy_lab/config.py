"""Flat key-value run configuration with unit-annotated keys.

The config file format is one `key = value` pair per line, `#` comments
allowed anywhere.  Every physical key carries its unit as a suffix
(_GHz, _MHz, _us, _ns, _rad); unknown keys are rejected so typos fail
loudly instead of silently falling back to defaults.  One table,
`_DOMAINS`, states each key's legal values, and `RunConfig` checks them
whenever it is built: a config file, `RunConfig(...)` and
`dataclasses.replace` reject the same values with the same message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Union

# CPython's builtin sha256, not hashlib's OpenSSL one (see config_hash).
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .model import DEVICE, N_FOCK, DispersiveSystemParams, NoiseModel
from .pulses import (DEFAULT_STEP_1Q, DEFAULT_STEP_2Q, DEFAULT_TAU, DEFAULT_TAU_TWO_QUBIT,
                     SCHEME_DYNAMICAL, SCHEME_NHQC, SCHEME_SR, SCHEMES, GateSpec,
                     rabi_scale)


class ConfigError(ValueError):
    """Raised for malformed files, unknown keys or bad values."""


@dataclass(frozen=True)
class RunConfig:
    """Device parameters and run controls.

    Every key is read by some command.  The simulator works in the
    drives' rotating frame, so the device's lab-frame frequencies,
    readout-cavity shifts, Ramsey times and Raman pulse length are not
    keys, and no result feels the storage cavity's T2* (README lists
    them all).
    """

    # Storage-cavity dispersive shifts (drive the two-qubit gate)
    chi_storage_ge_MHz: float = DEVICE["chi_storage_ge_MHz"]
    chi_storage_ef_MHz: float = DEVICE["chi_storage_ef_MHz"]

    # Transmon coherence
    t1_ge_us: float = DEVICE["t1_ge_us"]
    t1_ef_us: float = DEVICE["t1_ef_us"]
    t1_gf_us: float = DEVICE["t1_gf_us"]
    t2e_ge_us: float = DEVICE["t2e_ge_us"]
    t2e_ef_us: float = DEVICE["t2e_ef_us"]
    t2e_gf_us: float = DEVICE["t2e_gf_us"]

    # Storage cavity coherence
    cavity_t1_us: float = DEVICE["cavity_t1_us"]

    # Gate durations and integration steps
    tau_sr_ns: float = DEFAULT_TAU[SCHEME_SR]
    tau_nhqc_ns: float = DEFAULT_TAU[SCHEME_NHQC]
    tau_dynamical_ns: float = DEFAULT_TAU[SCHEME_DYNAMICAL]
    tau_2q_sr_ns: float = DEFAULT_TAU_TWO_QUBIT[SCHEME_SR]
    tau_2q_nhqc_ns: float = DEFAULT_TAU_TWO_QUBIT[SCHEME_NHQC]
    step_1q_ns: float = DEFAULT_STEP_1Q
    step_2q_ns: float = DEFAULT_STEP_2Q

    # Run controls
    scheme: str = "sr-nhqc"
    theta_rad: float = 1.5707963267948966
    phi_rad: float = 0.0
    gamma_rad: float = 3.141592653589793
    epsilon: float = 0.0
    noise: bool = False
    seed: int = 0
    n_fock: int = N_FOCK
    output_dir: str = "out"

    def __post_init__(self):
        for key, (what, ok) in _DOMAINS.items():
            value = getattr(self, key)
            try:
                legal = ok(value)
            except (TypeError, ValueError):
                legal = False
            if not legal:
                raise ConfigError(f"key {key!r}: expected {what}, got {value!r}")

    def noise_model(self) -> NoiseModel:
        return NoiseModel.from_coherence_times(
            t1_ge_us=self.t1_ge_us, t1_ef_us=self.t1_ef_us,
            t1_gf_us=self.t1_gf_us, t2e_ge_us=self.t2e_ge_us,
            t2e_ef_us=self.t2e_ef_us, t2e_gf_us=self.t2e_gf_us,
            epsilon=self.epsilon)

    def gate(self) -> GateSpec:
        """The target rotation of the angle keys."""
        return GateSpec(self.theta_rad, self.phi_rad, self.gamma_rad)

    def tau_ns(self, scheme: str, two_qubit: bool = False) -> float:
        """Configured gate duration of a scheme, single- or two-qubit."""
        if two_qubit:
            return {SCHEME_SR: self.tau_2q_sr_ns, SCHEME_NHQC: self.tau_2q_nhqc_ns}[scheme]
        return {SCHEME_SR: self.tau_sr_ns, SCHEME_NHQC: self.tau_nhqc_ns,
                SCHEME_DYNAMICAL: self.tau_dynamical_ns}[scheme]

    def dispersive_params(self) -> DispersiveSystemParams:
        return DispersiveSystemParams.from_mhz(
            chi_ge_mhz=self.chi_storage_ge_MHz,
            chi_ef_mhz=self.chi_storage_ef_MHz, n_fock=self.n_fock)


# Each key's legal values: (what the error names, test).  A test that
# returns false or raises TypeError or ValueError rejects the value.  A
# run divides by the coherence times (inf, no decay, is legal),
# integrates over the durations and steps, and rotates by the angles.
_DOMAINS = {
    **dict.fromkeys(("t1_ge_us", "t1_ef_us", "t1_gf_us", "t2e_ge_us", "t2e_ef_us",
                     "t2e_gf_us", "cavity_t1_us"),
                    ("a positive time", lambda v: v > 0)),
    **dict.fromkeys(("tau_sr_ns", "tau_nhqc_ns", "tau_dynamical_ns", "tau_2q_sr_ns",
                     "tau_2q_nhqc_ns", "step_1q_ns", "step_2q_ns"),
                    ("a finite and positive duration", lambda v: 0 < v < math.inf)),
    **dict.fromkeys(("chi_storage_ge_MHz", "chi_storage_ef_MHz", "theta_rad", "phi_rad",
                     "gamma_rad"), ("a finite number", math.isfinite)),
    "scheme": (f"one of {SCHEMES}", lambda v: v in SCHEMES),
    # rabi_scale states the rule: it raises unless |epsilon| <= 1.
    "epsilon": ("a number in [-1, 1]", lambda v: rabi_scale(v) >= 0),
    "noise": ("a boolean", lambda v: isinstance(v, bool)),
    "seed": ("a non-negative integer", lambda v: v >= 0),
    "n_fock": ("an integer of at least 3", lambda v: v >= 3),
    "output_dir": ("a path", lambda v: isinstance(v, str)),
}
_BOOLEANS = {"1": True, "true": True, "on": True, "yes": True,
             "0": False, "false": False, "off": False, "no": False}


def _parse_value(key: str, raw: str):
    """raw as the type of the key's default."""
    typ = type(getattr(RunConfig, key))
    try:
        return _BOOLEANS[raw.lower()] if typ is bool else typ(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"key {key!r}: expected {typ.__name__}, got {raw!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse flat key-value text into a RunConfig over the defaults.

    Every value is checked against its key's domain; a key given twice
    is an error.
    """
    updates, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key not in _DOMAINS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"line {lineno}: key {key!r} already set on line {lines[key]}")
        updates[key], lines[key] = _parse_value(key, raw), lineno
    return RunConfig(**updates)


# The most steps of one run.  A run's buffers take up to about 0.8 kB
# per step (dynphase at step_1q_ns = 0.005: a propagator, chain rows and
# phase integrands per step), so a run at the cap takes about 0.8 GB.
MAX_RUN_STEPS = 10 ** 6
# The durations that each step key cuts into steps.
_STEP_RUNS = {"step_1q_ns": ("tau_sr_ns", "tau_nhqc_ns", "tau_dynamical_ns"),
              "step_2q_ns": ("tau_2q_sr_ns", "tau_2q_nhqc_ns")}


def load_config(path: Union[str, Path]) -> RunConfig:
    """Read and parse a config file; every key is checked, whatever the
    command reads, and so is each step against the longest run it cuts:
    a run of more than MAX_RUN_STEPS steps is rejected before anything
    is allocated."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    cfg = parse_config(text)
    for key, taus in _STEP_RUNS.items():
        tau = max(taus, key=lambda name: getattr(cfg, name))
        steps = getattr(cfg, tau) / getattr(cfg, key)
        if not steps <= MAX_RUN_STEPS:
            raise ConfigError(f"key {key!r}: expected at most {MAX_RUN_STEPS} steps per run, "
                              f"got {steps:.3g} for {tau} = {getattr(cfg, tau)!r}")
    return cfg


def config_hash(cfg: RunConfig) -> str:
    """Short stable digest of the configuration: the first 12 hex digits
    of the sha256 of every key but one, sorted.

    The output directory is excluded: it routes artifacts but never
    changes results, and hashing it would make byte-identical reruns
    into different directories impossible.  The sha256 is CPython's
    builtin one, not hashlib's: importing hashlib maps OpenSSL (about
    3.6 MB of every command's resident memory) for this one digest, and
    the builtin gives the same bytes.  hashlib is the fallback where
    the builtin module is missing.
    """
    canon = "\n".join(f"{f.name}={getattr(cfg, f.name)!r}"
                      for f in sorted(fields(RunConfig), key=lambda f: f.name)
                      if f.name != "output_dir")
    return sha256(canon.encode()).hexdigest()[:12]


def default_config_text() -> str:
    """Annotated config file with the measured device values."""
    lines = [
        "# Device and run configuration.",
        "# One 'key = value' per line; unit suffixes are part of the key.",
        "",
    ]
    for f in fields(RunConfig):
        lines.append(f"{f.name} = {f.default}")
    lines.append("")
    return "\n".join(lines)
