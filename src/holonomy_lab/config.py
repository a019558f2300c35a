"""Flat key-value run configuration with unit-annotated keys.

The config file format is one `key = value` pair per line, `#` comments
allowed anywhere.  Every physical key carries its unit as a suffix
(_GHz, _MHz, _us, _ns, _rad); unknown keys are rejected so typos fail
loudly instead of silently falling back to defaults.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Union

from .model import DEVICE, N_FOCK, DispersiveSystemParams, NoiseModel
from .pulses import (DEFAULT_STEP_1Q, DEFAULT_STEP_2Q, DEFAULT_TAU, DEFAULT_TAU_TWO_QUBIT,
                     SCHEME_DYNAMICAL, SCHEME_NHQC, SCHEME_SR, SCHEMES, rabi_scale)


class ConfigError(ValueError):
    """Raised for malformed files, unknown keys or bad values."""


@dataclass(frozen=True)
class RunConfig:
    """Device parameters and run controls.

    Frequency/shift entries above the coherence block are bookkeeping
    for the lab frame; the dynamics only consume the dispersive shifts,
    the coherence times and the durations.
    """

    # Transition and mode frequencies (lab frame, informational)
    omega_ge_GHz: float = 5.31
    omega_ef_GHz: float = 5.12
    omega_readout_GHz: float = 8.68
    omega_storage_GHz: float = 6.56
    raman_drive_GHz: float = 3.83

    # Dispersive shifts: readout cavity (informational) and storage
    # cavity (drives the two-qubit gate)
    chi_readout_ge_MHz: float = 2.52
    chi_readout_ef_MHz: float = 2.39
    chi_storage_ge_MHz: float = DEVICE["chi_storage_ge_MHz"]
    chi_storage_ef_MHz: float = DEVICE["chi_storage_ef_MHz"]

    # Transmon coherence
    t1_ge_us: float = DEVICE["t1_ge_us"]
    t1_ef_us: float = DEVICE["t1_ef_us"]
    t1_gf_us: float = DEVICE["t1_gf_us"]
    t2e_ge_us: float = DEVICE["t2e_ge_us"]
    t2e_ef_us: float = DEVICE["t2e_ef_us"]
    t2e_gf_us: float = DEVICE["t2e_gf_us"]
    t2star_ge_us: float = 25.9
    t2star_ef_us: float = 12.9

    # Storage cavity coherence
    cavity_t1_us: float = DEVICE["cavity_t1_us"]
    cavity_t2star_us: float = DEVICE["cavity_t2star_us"]

    # Gate durations and integration steps
    tau_sr_ns: float = DEFAULT_TAU[SCHEME_SR]
    tau_nhqc_ns: float = DEFAULT_TAU[SCHEME_NHQC]
    tau_dynamical_ns: float = DEFAULT_TAU[SCHEME_DYNAMICAL]
    tau_2q_sr_ns: float = DEFAULT_TAU_TWO_QUBIT[SCHEME_SR]
    tau_2q_nhqc_ns: float = DEFAULT_TAU_TWO_QUBIT[SCHEME_NHQC]
    raman_pulse_ns: float = 140.0
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
        if self.scheme not in SCHEMES:
            raise ConfigError(f"key 'scheme': expected one of {SCHEMES}, got {self.scheme!r}")
        try:
            rabi_scale(self.epsilon)
        except ValueError as exc:
            raise ConfigError(f"key 'epsilon': {exc}") from exc

    def noise_model(self) -> NoiseModel:
        return NoiseModel.from_coherence_times(
            t1_ge_us=self.t1_ge_us, t1_ef_us=self.t1_ef_us,
            t1_gf_us=self.t1_gf_us, t2e_ge_us=self.t2e_ge_us,
            t2e_ef_us=self.t2e_ef_us, t2e_gf_us=self.t2e_gf_us,
            epsilon=self.epsilon)

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


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
# Keys a run divides by: positive, with inf (no decay) legal.
_COHERENCE_KEYS = ("t1_ge_us", "t1_ef_us", "t1_gf_us", "t2e_ge_us", "t2e_ef_us",
                   "t2e_gf_us", "cavity_t1_us", "cavity_t2star_us")
_ANGLE_KEYS = ("theta_rad", "phi_rad", "gamma_rad")


def _parse_value(key: str, raw: str):
    typ = _FIELD_TYPES[key]
    raw = raw.strip()
    if typ in ("bool", bool):
        low = raw.lower()
        if low in ("1", "true", "on", "yes"):
            return True
        if low in ("0", "false", "off", "no"):
            return False
        raise ConfigError(f"key {key!r}: expected boolean, got {raw!r}")
    if typ in ("int", int):
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: expected integer, got {raw!r}") from exc
    if typ in ("float", float):
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: expected number, got {raw!r}") from exc
    return raw


def parse_config(text: str) -> RunConfig:
    """Parse flat key-value text into a RunConfig over the defaults."""
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        updates[key] = _parse_value(key, raw)
    return RunConfig(**updates)


def load_config(path: Union[str, Path]) -> RunConfig:
    """Read a config file to run from.

    Beyond what parse_config checks, every coherence time must be
    positive (inf is legal) and every gate angle finite: a run divides by
    the one and rotates by the other.
    """
    cfg = parse_config(Path(path).read_text())
    for key in _COHERENCE_KEYS:
        if not getattr(cfg, key) > 0:
            raise ConfigError(f"key {key!r}: expected a positive time, got {getattr(cfg, key)}")
    for key in _ANGLE_KEYS:
        if not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"key {key!r}: expected a finite angle, got {getattr(cfg, key)}")
    return cfg


def config_hash(cfg: RunConfig) -> str:
    """Short stable digest of the configuration.

    The output directory is excluded: it routes artifacts but never
    changes results, and hashing it would make byte-identical reruns
    into different directories impossible.
    """
    canon = "\n".join(f"{f.name}={getattr(cfg, f.name)!r}"
                      for f in sorted(fields(RunConfig), key=lambda f: f.name)
                      if f.name != "output_dir")
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


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
