"""Plain-text model files.

One key per line, arrays flattened in C order and written with 17
significant digits so every float64 round-trips exactly. Lines starting
with '#' and blank lines are ignored. The 'kind' key says whether an
observation-probability block is present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cptv import CptvParams
from .errors import ParseError
from .mixture import MixtureParams

FORMAT_VERSION = 1

_KIND_PLAIN = "mixture"
_KIND_CPTV = "mixture+cptv"


@dataclass
class LoadedModel:
    """Contents of a model file."""

    params: MixtureParams
    cptv: CptvParams | None = None
    mu_mode: str | None = None
    z: np.ndarray | None = None


def _fmt(arr) -> str:
    return " ".join("%.17g" % x for x in np.asarray(arr, dtype=float).ravel())


def save_model(path, params: MixtureParams, cptv: CptvParams | None = None,
               mu_mode: str | None = None, z=None) -> None:
    """Write parameters (and optional observation model) to ``path``."""
    K, M, V = params.n_components, params.n_items, params.n_values
    lines = ["# rating mixture model",
             f"format_version {FORMAT_VERSION}",
             f"kind {_KIND_CPTV if cptv is not None else _KIND_PLAIN}",
             f"K {K}", f"M {M}", f"V {V}",
             "theta " + _fmt(params.theta),
             "beta " + _fmt(params.beta)]
    if params.alpha is not None:
        lines.append("alpha " + _fmt(params.alpha))
    if params.phi is not None:
        lines.append("phi " + _fmt(params.phi))
    if cptv is not None:
        lines.append("mu " + _fmt(cptv.mu))
        if mu_mode is not None:
            lines.append(f"mu_mode {mu_mode}")
        if cptv.xi1 is not None:
            lines.append("xi1 " + _fmt(cptv.xi1))
            lines.append("xi0 " + _fmt(cptv.xi0))
    if z is not None:
        lines.append("z " + " ".join(str(int(v)) for v in np.asarray(z).ravel()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_floats(rest, line_no):
    try:
        return np.array([float(t) for t in rest])
    except ValueError:
        raise ParseError("malformed float", line=line_no) from None


def _parse_ints(rest, line_no):
    try:
        return np.array([int(t) for t in rest], dtype=np.int64)
    except ValueError:
        raise ParseError("malformed integer", line=line_no) from None


def _parse_int(rest, line_no):
    if len(rest) != 1:
        raise ParseError("expected a single integer", line=line_no)
    try:
        return int(rest[0])
    except ValueError:
        raise ParseError(f"malformed integer {rest[0]!r}", line=line_no) from None


def load_model(path) -> LoadedModel:
    """Read a model file written by `save_model`."""
    fields = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, *rest = line.split()
            if key in fields:
                raise ParseError(f"duplicate key {key!r}", line=line_no)
            if key in ("format_version", "K", "M", "V"):
                fields[key] = _parse_int(rest, line_no)
            elif key in ("theta", "beta", "alpha", "phi", "mu", "xi1", "xi0"):
                fields[key] = _parse_floats(rest, line_no)
            elif key == "z":
                fields[key] = _parse_ints(rest, line_no)
            elif key in ("kind", "mu_mode"):
                if len(rest) != 1:
                    raise ParseError(f"{key} takes one token", line=line_no)
                fields[key] = rest[0]
            else:
                raise ParseError(f"unknown key {key!r}", line=line_no)

    for required in ("format_version", "kind", "K", "M", "V", "theta", "beta"):
        if required not in fields:
            raise ParseError(f"missing required key {required!r}")
    if fields["format_version"] != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {fields['format_version']}")
    if fields["kind"] not in (_KIND_PLAIN, _KIND_CPTV):
        raise ParseError(f"unknown kind {fields['kind']!r}")

    K, M, V = fields["K"], fields["M"], fields["V"]
    if fields["theta"].shape != (K,):
        raise ParseError(f"theta must hold {K} values")
    if fields["beta"].size != V * M * K:
        raise ParseError(f"beta must hold {V * M * K} values")
    beta = fields["beta"].reshape(V, M, K)
    alpha = fields.get("alpha")
    if alpha is not None and alpha.shape != (K,):
        raise ParseError(f"alpha must hold {K} values")
    phi = fields.get("phi")
    if phi is not None:
        if phi.size != V * M * K:
            raise ParseError(f"phi must hold {V * M * K} values")
        phi = phi.reshape(V, M, K)
    params = MixtureParams(theta=fields["theta"], beta=beta, alpha=alpha, phi=phi)

    cptv = None
    if fields["kind"] == _KIND_CPTV:
        if "mu" not in fields:
            raise ParseError("kind mixture+cptv requires a mu line")
        if fields["mu"].shape != (V,):
            raise ParseError(f"mu must hold {V} values")
        xi1, xi0 = fields.get("xi1"), fields.get("xi0")
        if (xi1 is None) != (xi0 is None):
            raise ParseError("xi1 and xi0 must appear together")
        cptv = CptvParams(mu=fields["mu"], xi1=xi1, xi0=xi0)
    elif "mu" in fields:
        raise ParseError("mu line present but kind is plain mixture")

    return LoadedModel(params=params, cptv=cptv,
                       mu_mode=fields.get("mu_mode"), z=fields.get("z"))
