"""Plain-text model files.

One key per line, arrays flattened in C order. A float array is one
token, its little-endian float64 bytes in hex; scalars are decimal, floats
to 17 significant digits. Every float64 round-trips exactly. Lines starting
with '#' and blank lines are ignored. The 'kind' key says whether an
observation-probability block is present. The smoothing is stored as one
'alpha' and one 'phi' value. Only files of FORMAT_VERSION load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cptv import CptvParams, check_mu_length
from .data import format_floats, read_text, write_text
from .errors import ConfigurationError, ParseError
from .mixture import FitConfig, MixtureParams

FORMAT_VERSION = 3
# Largest distance from 1 accepted for the sum of a stored distribution.
_SIMPLEX_TOL = 1e-9

# Every key a model file may hold, in the order `save_model` writes them,
# and the type of its tokens; each of _SCALAR_KEYS takes one token, and
# each float array one hex token.
_KEYS = {"format_version": int, "kind": str, "K": int, "M": int, "V": int,
         "theta": float, "beta": float, "alpha": float, "phi": float,
         "mu": float, "mu_mode": str, "xi1": float, "xi0": float, "z": int}
_SCALAR_KEYS = ("format_version", "K", "M", "V", "kind", "alpha", "phi", "mu_mode")
_KIND_PLAIN = "mixture"
_KIND_CPTV = "mixture+cptv"


@dataclass
class LoadedModel:
    """Contents of a model file."""

    params: MixtureParams
    cptv: CptvParams | None = None
    mu_mode: str | None = None
    z: np.ndarray | None = None


def _check_mu_mode(mu_mode: str | None, cptv: CptvParams) -> None:
    """ConfigurationError unless ``mu_mode`` is None or the mode of ``cptv``:
    learn exactly when it carries mu's Beta prior, else fixed."""
    mode = "fixed" if cptv.xi1 is None else "learn"
    if mu_mode not in (None, mode):
        raise ConfigurationError(f"expected mu_mode {mode!r}, as xi1/xi0 say; got {mu_mode!r}")


def save_model(path, params: MixtureParams, cptv: CptvParams | None = None,
               mu_mode: str | None = None, z=None) -> None:
    """Write parameters (and optional observation model) to ``path``."""
    values = {"format_version": FORMAT_VERSION,
              "kind": _KIND_PLAIN if cptv is None else _KIND_CPTV,
              "K": params.n_components, "M": params.n_items, "V": params.n_values,
              "theta": params.theta, "beta": params.beta,
              "alpha": params.alpha, "phi": params.phi, "z": z}
    if cptv is not None:
        _check_mu_mode(mu_mode, cptv)
        values.update(mu=cptv.mu, mu_mode=mu_mode, xi1=cptv.xi1, xi0=cptv.xi0)
    write_text(path, "# rating mixture model\n", (
        f"{key} {_tokens(key, value)}\n"
        for key in _KEYS if (value := values.get(key)) is not None))


def _tokens(key, value) -> str:
    """The tokens of a ``key`` line that holds ``value``."""
    kind = _KEYS[key]
    if kind is float and key not in _SCALAR_KEYS:
        return np.ascontiguousarray(value, dtype="<f8").tobytes().hex()
    return (format_floats(value) if kind is float else
            " ".join(map(str, np.ravel(np.asarray(value, dtype=kind)).tolist())))


def _parse(key, rest, line_no):
    """The value on a ``key`` line of tokens ``rest``: the one token of a
    scalar key, the float64 array of a float array's hex token (none for an
    empty array), else an array of the key's type."""
    kind, scalar = _KEYS[key], key in _SCALAR_KEYS
    if len(rest) != 1 and (scalar or kind is float and rest):
        raise ParseError(f"{key} takes one token", line=line_no)
    if kind is str:
        return rest[0]
    try:
        if kind is float and not scalar:  # a bytearray keeps the array writable
            return np.frombuffer(bytearray.fromhex("".join(rest)), "<f8")
        values = np.array(rest, dtype=np.int64 if kind is int else float)
    except (ValueError, OverflowError):
        raise ParseError("malformed " + ("integer" if kind is int else "float" if scalar
                                         else "float64 hex token"), line=line_no) from None
    return values[0].item() if scalar else values


def load_model(path) -> LoadedModel:
    """Read a model file written by `save_model`."""
    fields = {}
    for line_no, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, *rest = line.split()
        if key in fields:
            raise ParseError(f"duplicate key {key!r}", line=line_no)
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}", line=line_no)
        fields[key] = _parse(key, rest, line_no)

    for required in ("format_version", "kind", "K", "M", "V", "theta", "beta"):
        if required not in fields:
            raise ParseError(f"missing required key {required!r}")
    if fields["format_version"] != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {fields['format_version']}")
    if fields["kind"] not in (_KIND_PLAIN, _KIND_CPTV):
        raise ParseError(f"unknown kind {fields['kind']!r}")

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
    try:  # FitConfig's rule on the smoothing; an absent line takes its default
        FitConfig(K, alpha=fields.get("alpha", FitConfig.alpha),
                  phi=fields.get("phi", FitConfig.phi))
    except ConfigurationError as exc:
        raise ParseError(str(exc)) from None
    params = MixtureParams(theta=fields["theta"], beta=beta,
                           alpha=fields.get("alpha"), phi=fields.get("phi"))

    cptv = None
    if fields["kind"] == _KIND_CPTV:
        if "mu" not in fields:
            raise ParseError("kind mixture+cptv requires a mu line")
        try:
            check_mu_length(fields["mu"], V)
            cptv = CptvParams(mu=fields["mu"], xi1=fields.get("xi1"),
                              xi0=fields.get("xi0"))
            _check_mu_mode(fields.get("mu_mode"), cptv)
        except ConfigurationError as exc:
            raise ParseError(str(exc)) from None
    else:
        for key in ("mu", "xi1", "xi0", "mu_mode"):
            if key in fields:
                raise ParseError(f"{key} line present but kind is plain mixture")

    return LoadedModel(params=params, cptv=cptv,
                       mu_mode=fields.get("mu_mode"), z=fields.get("z"))
