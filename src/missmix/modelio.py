"""Plain-text model files.

One key per line, arrays flattened in C order and written with 17
significant digits so every float64 round-trips exactly. Lines starting
with '#' and blank lines are ignored. The 'kind' key says whether an
observation-probability block is present. Format 2 stores the smoothing
as one 'alpha' and one 'phi' value; format 1 files, which repeated them K
and V*M*K times, load if the repeats agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cptv import CptvParams
from .data import format_floats, read_lines, write_text
from .errors import ConfigurationError, ParseError
from .mixture import MixtureParams

FORMAT_VERSION = 2
# Largest distance from 1 accepted for the sum of a stored distribution.
_SIMPLEX_TOL = 1e-9

_SCALAR_KEYS = ("format_version", "K", "M", "V", "kind", "mu_mode")
_KIND_PLAIN = "mixture"
_KIND_CPTV = "mixture+cptv"


@dataclass
class LoadedModel:
    """Contents of a model file."""

    params: MixtureParams
    cptv: CptvParams | None = None
    mu_mode: str | None = None
    z: np.ndarray | None = None


def save_model(path, params: MixtureParams, cptv: CptvParams | None = None,
               mu_mode: str | None = None, z=None) -> None:
    """Write parameters (and optional observation model) to ``path``."""
    K, M, V = params.n_components, params.n_items, params.n_values
    lines = ["# rating mixture model",
             f"format_version {FORMAT_VERSION}",
             f"kind {_KIND_CPTV if cptv is not None else _KIND_PLAIN}",
             f"K {K}", f"M {M}", f"V {V}",
             "theta " + format_floats(params.theta),
             "beta " + format_floats(params.beta)]
    if params.alpha is not None:
        lines.append("alpha " + format_floats(params.alpha))
    if params.phi is not None:
        lines.append("phi " + format_floats(params.phi))
    if cptv is not None:
        lines.append("mu " + format_floats(cptv.mu))
        if mu_mode is not None:
            lines.append(f"mu_mode {mu_mode}")
        if cptv.xi1 is not None:
            lines.append("xi1 " + format_floats(cptv.xi1))
            lines.append("xi0 " + format_floats(cptv.xi0))
    if z is not None:
        lines.append("z " + " ".join(str(int(v)) for v in np.asarray(z).ravel()))
    write_text(path, "\n".join(lines) + "\n")


def _parse_floats(rest, line_no):
    try:
        return np.array([float(t) for t in rest])
    except ValueError:
        raise ParseError("malformed float", line=line_no) from None


def _parse_ints(rest, line_no):
    try:
        return np.array([int(t) for t in rest], dtype=np.int64)
    except (ValueError, OverflowError):
        raise ParseError("malformed integer", line=line_no) from None


def _smoothing(fields, key, v1_size):
    """The value on smoothing line ``key`` (repeated ``v1_size`` times in
    format 1), or None if the line is absent."""
    values = fields.get(key)
    size = v1_size if fields["format_version"] == 1 else 1
    if values is not None and (values.size != size or np.unique(values).size != 1
                               or not 1 < values[0] < np.inf):
        raise ParseError(f"{key} must be one finite value > 1" + (
            f", repeated {size} times in format 1" if size > 1 else ""))
    return None if values is None else float(values[0])


def load_model(path) -> LoadedModel:
    """Read a model file written by `save_model`."""
    fields = {}
    for line_no, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, *rest = line.split()
        if key in fields:
            raise ParseError(f"duplicate key {key!r}", line=line_no)
        if key in _SCALAR_KEYS and len(rest) != 1:
            raise ParseError(f"{key} takes one token", line=line_no)
        if key in ("format_version", "K", "M", "V"):
            fields[key] = int(_parse_ints(rest, line_no)[0])
        elif key in ("theta", "beta", "alpha", "phi", "mu", "xi1", "xi0"):
            fields[key] = _parse_floats(rest, line_no)
        elif key == "z":
            fields[key] = _parse_ints(rest, line_no)
        elif key in ("kind", "mu_mode"):
            fields[key] = rest[0]
        else:
            raise ParseError(f"unknown key {key!r}", line=line_no)

    for required in ("format_version", "kind", "K", "M", "V", "theta", "beta"):
        if required not in fields:
            raise ParseError(f"missing required key {required!r}")
    if fields["format_version"] not in (1, FORMAT_VERSION):
        raise ParseError(f"unsupported format_version {fields['format_version']}")
    if fields["kind"] not in (_KIND_PLAIN, _KIND_CPTV):
        raise ParseError(f"unknown kind {fields['kind']!r}")
    if fields.get("mu_mode", "fixed") not in ("fixed", "learn"):
        raise ParseError(f"unknown mu_mode {fields['mu_mode']!r}")

    K, M, V = fields["K"], fields["M"], fields["V"]
    if min(K, M, V) < 1:
        raise ParseError("K, M and V must all be >= 1")
    if fields["theta"].shape != (K,):
        raise ParseError(f"theta must hold {K} values")
    if fields["beta"].size != V * M * K:
        raise ParseError(f"beta must hold {V * M * K} values")
    beta = fields["beta"].reshape(V, M, K)
    for key in ("theta", "beta"):
        if not ((fields[key] >= 0) & (fields[key] <= 1)).all():
            raise ParseError(f"{key} must hold probabilities in [0, 1]")
    if max(abs(fields["theta"].sum() - 1.0),
           np.abs(beta.sum(axis=0) - 1.0).max(initial=0.0)) > _SIMPLEX_TOL:
        raise ParseError("theta and each beta[:, m, z] must sum to 1"
                         f" within {_SIMPLEX_TOL:g}")
    params = MixtureParams(theta=fields["theta"], beta=beta,
                           alpha=_smoothing(fields, "alpha", K),
                           phi=_smoothing(fields, "phi", V * M * K))

    cptv = None
    if fields["kind"] == _KIND_CPTV:
        if "mu" not in fields:
            raise ParseError("kind mixture+cptv requires a mu line")
        if fields["mu"].shape != (V,):
            raise ParseError(f"mu must hold {V} values")
        try:
            cptv = CptvParams(mu=fields["mu"], xi1=fields.get("xi1"),
                              xi0=fields.get("xi0"))
        except ConfigurationError as exc:
            raise ParseError(str(exc)) from None
    else:
        for key in ("mu", "xi1", "xi0", "mu_mode"):
            if key in fields:
                raise ParseError(f"{key} line present but kind is plain mixture")

    return LoadedModel(params=params, cptv=cptv,
                       mu_mode=fields.get("mu_mode"), z=fields.get("z"))
