import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from missmix.cptv import CptvParams, fit_nmar
from missmix.errors import ConfigurationError, MissmixError, ParseError
from missmix.mixture import FitConfig, MixtureParams, fit_mar
from missmix.modelio import FORMAT_VERSION, _parse, _tokens, load_model, save_model
from missmix.synthetic import apply_cptv_missingness, sample_ground_truth


@pytest.fixture(scope="module")
def fitted():
    truth = sample_ground_truth(60, 8, 4, 2,
                                np.array([0.2, 0.4, 0.6, 0.9]), seed=30)
    ds = apply_cptv_missingness(truth, seed=31)
    cfg = FitConfig(n_components=2, seed=3, max_iters=40)
    plain = fit_mar(ds, cfg)
    aware = fit_nmar(ds, cfg, np.full(4, 0.5), strength=10.0)  # xi1 = xi0 = 5
    return truth, plain, aware


def test_round_trip_plain_model(tmp_path, fitted):
    _, plain, _ = fitted
    path = tmp_path / "plain.model"
    save_model(path, plain.params)
    back = load_model(path)
    assert np.array_equal(back.params.theta, plain.params.theta)
    assert np.array_equal(back.params.beta, plain.params.beta)
    assert np.array_equal(back.params.alpha, plain.params.alpha)
    assert np.array_equal(back.params.phi, plain.params.phi)
    assert back.cptv is None and back.mu_mode is None and back.z is None


def test_round_trip_cptv_model(tmp_path, fitted):
    _, _, aware = fitted
    path = tmp_path / "aware.model"
    save_model(path, aware.params, cptv=aware.cptv, mu_mode="learn")
    back = load_model(path)
    assert np.array_equal(back.params.beta, aware.params.beta)
    assert np.array_equal(back.cptv.mu, aware.cptv.mu)
    assert np.array_equal(back.cptv.xi1, aware.cptv.xi1)
    assert np.array_equal(back.cptv.xi0, aware.cptv.xi0)
    assert back.mu_mode == "learn"
    # decoded arrays can be written to, as arrays parsed from text could
    for array in (back.params.theta, back.params.beta, back.cptv.mu, back.cptv.xi1,
                  back.cptv.xi0):
        assert array.flags.writeable


def test_round_trip_truth_with_assignments(tmp_path, fitted):
    truth, _, _ = fitted
    path = tmp_path / "truth.model"
    save_model(path, truth.params, cptv=CptvParams(mu=truth.mu), z=truth.z)
    back = load_model(path)
    assert back.params.alpha is None and back.params.phi is None
    assert np.array_equal(back.z, truth.z)
    assert np.array_equal(back.cptv.mu, np.clip(truth.mu, 1e-12, 1 - 1e-12))


def test_the_writer_refuses_a_z_its_reader_would_refuse(tmp_path):
    # save_model wrote `z -7` for a one-component model, which load_model refused
    params = MixtureParams(theta=np.ones(1), beta=np.full((2, 1, 1), 0.5))
    path = tmp_path / "m.model"
    with pytest.raises(ConfigurationError, match=r"^z entries must be component indices"
                                                 r" in 0\.\.0$"):
        save_model(path, params, z=[-7])
    assert not path.exists()
    save_model(path, params, z=[0, 0])
    assert load_model(path).z.tolist() == [0, 0]


def test_save_is_byte_stable(tmp_path, fitted):
    _, plain, _ = fitted
    p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
    save_model(p1, plain.params)
    save_model(p2, plain.params)
    assert p1.read_bytes() == p2.read_bytes()


def _hex(*values):
    """The one token of a float array line that holds ``values``."""
    return np.array(values, dtype="<f8").tobytes().hex()


def _base_lines():
    return [f"format_version {FORMAT_VERSION}", "kind mixture", "K 1", "M 1", "V 2",
            "theta " + _hex(1), "beta " + _hex(0.25, 0.75)]


def _write(tmp_path, lines, name="m.model"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _cptv_lines():
    return _base_lines()[:1] + ["kind mixture+cptv"] + _base_lines()[2:] + [
        "mu " + _hex(0.5, 0.5)]


def test_load_rejects_malformed_files(tmp_path):
    ok = load_model(_write(tmp_path, _base_lines()))
    assert ok.params.beta.shape == (2, 1, 1)
    for extra, mode in (([], None), (["mu_mode fixed"], "fixed"),
                        (["mu_mode learn", "xi1 " + _hex(2, 2), "xi0 " + _hex(2, 2)],
                         "learn")):
        assert load_model(_write(tmp_path, _cptv_lines() + extra)).mu_mode == mode

    cases = [
        (_base_lines()[1:], "missing required key"),            # no version
        (_base_lines() + ["kind mixture"], "duplicate"),
        ([f"format_version {FORMAT_VERSION + 1}"] + _base_lines()[1:], "format_version"),
        (["format_version 1"] + _base_lines()[1:], "unsupported format_version 1"),
        (["format_version 2"] + _base_lines()[1:], "unsupported format_version 2"),
        (_base_lines()[:6] + ["beta " + _hex(0.25)], "must hold 2"),
        (_base_lines()[:5] + ["theta " + _hex(0.5, 0.5)] + _base_lines()[6:],
         "theta must hold 1 values"),
        (_base_lines() + ["what 1"], "unknown key"),
        (_base_lines()[:6] + ["beta " + _hex(0.25) + "zebra"], "malformed float"),
        (_base_lines() + ["z 0 x"], "malformed integer"),
        (_base_lines() + ["z 0 -7"], r"z entries must be component indices in 0\.\.0"),
        (_base_lines() + ["z 1"], r"z entries must be component indices in 0\.\.0"),
        (_base_lines() + ["mu " + _hex(0.5, 0.5)], "kind is plain"),
        (_cptv_lines()[:-1], "requires a mu"),
        (_base_lines()[:6] + ["beta " + _hex(np.nan, 0.75)], "probabilities"),
        (_base_lines()[:6] + ["beta " + _hex(-3, 9)], "probabilities"),
        (_base_lines()[:5] + ["theta " + _hex(0.5)] + _base_lines()[6:], "sum to 1"),
        (_base_lines()[:6] + ["beta " + _hex(0.25, 0.5)], "sum to 1"),
        (_cptv_lines()[:-1] + ["mu " + _hex(np.nan, 0.5)], "probabilities"),
        (_base_lines() + ["alpha 1"], "alpha and phi must be finite and > 1"),
        (_base_lines() + ["alpha nan"], "alpha and phi must be finite and > 1"),
        (_base_lines() + ["phi inf"], "alpha and phi must be finite and > 1"),
        (_base_lines() + ["phi inf inf"], "phi takes one token"),
        (_base_lines() + ["phi 2 2"], "phi takes one token"),
        (_cptv_lines() + ["xi1 " + _hex(np.nan, np.nan), "xi0 " + _hex(2, 2)], "prior counts"),
        (_cptv_lines() + ["xi1 " + _hex(0.5, 2), "xi0 " + _hex(2, 2)], "prior counts"),
        (_cptv_lines() + ["xi1 " + _hex(2, 2, 2), "xi0 " + _hex(2, 2)], "match mu in shape"),
        (_cptv_lines() + ["xi1 " + _hex(2, 2)], "given together"),
        (_base_lines()[:3] + ["M -1", "V -1", "theta " + _hex(1), "beta " + _hex(1)], ">= 1"),
        (_base_lines()[:3] + ["M 0", "V 2", "theta " + _hex(1), "beta " + _hex()], ">= 1"),
        (_base_lines() + ["z 99999999999999999999"], "malformed integer"),
        (_base_lines()[:2] + ["K 1 1"] + _base_lines()[3:], "takes one token"),
        (_base_lines() + ["xi1 " + _hex(np.nan)], "xi1 line present but kind is plain"),
        (_base_lines() + ["xi0 " + _hex(2)], "xi0 line present but kind is plain"),
        (_base_lines() + ["mu_mode learn"], "mu_mode line present but kind"),
        # a plain file takes no mu_mode line, known or not
        (_base_lines() + ["xi1 " + _hex(np.nan), "mu_mode banana"],
         "xi1 line present but kind"),
        (_cptv_lines() + ["mu_mode banana"], "expected mu_mode 'fixed', as xi1/xi0 say;"
                                             " got 'banana'"),
        (_cptv_lines()[:-1] + ["mu " + _hex(0.5, 0.5, 0.5)],
         r"mu must have one entry per rating value \(2\), got shape \(3,\)"),
        # mu_mode must say what the prior lines say
        (_cptv_lines() + ["mu_mode learn"], "expected mu_mode 'fixed'.*got 'learn'"),
        (_cptv_lines() + ["mu_mode fixed", "xi1 " + _hex(2, 2), "xi0 " + _hex(2, 2)],
         "expected mu_mode 'learn'.*got 'fixed'"),
        # a float array line is one hex token of whole float64s, or the file
        # is refused at that line
        (_base_lines()[:6] + ["beta " + _hex(0.25) + " " + _hex(0.75)],
         "^line 7: beta takes one token$"),
        (_base_lines()[:6] + ["beta " + _hex(0.25, 0.75)[:-1]],
         "^line 7: malformed float64 hex token$"),
        (_base_lines()[:6] + ["beta zz"], "^line 7: malformed float64 hex token$"),
        (_base_lines()[:6] + ["beta " + "0" * 12], "^line 7: malformed float64 hex token$"),
        (_base_lines()[:6] + ["beta 0.5"], "^line 7: malformed float64 hex token$"),
    ]
    for i, (lines, match) in enumerate(cases):
        with pytest.raises(ParseError, match=match):
            load_model(_write(tmp_path, lines, name=f"bad{i}.model"))


_TOKENS = st.one_of(
    st.sampled_from(["-1", "0", "1", "0.5", "nan", "inf", "-inf", "1e999",
                     "99999999999999999999", "x", "mixture", "learn", "zz"]),
    st.integers(-3, 3).map(str),
    st.floats().map(repr),
    # hex tokens: whole float64s, then any bytes, whole or cut to odd length
    st.lists(st.floats(), min_size=1, max_size=3).map(lambda v: _hex(*v)),
    st.binary(min_size=1, max_size=17).map(bytes.hex).flatmap(
        lambda h: st.sampled_from([h, h[1:]])))
_FLOAT_ARRAYS = ("theta", "beta", "mu", "xi1", "xi0")


@st.composite
def _model_files(draw):
    """Model file text from load_model's keys: small (possibly invalid)
    dimensions, each array of the size they imply or arbitrary tokens,
    and each optional key present or not."""
    K, M, V = (draw(st.integers(-1, 2)) for _ in range(3))

    def tokens(key, n, value):
        if draw(st.integers(0, 3)):
            values = [value] * max(n, 0)
            return [_hex(*values)] if key in _FLOAT_ARRAYS else list(map(repr, values))
        return draw(st.lists(_TOKENS, max_size=3))

    fields = {"format_version": [str(draw(st.integers(1, FORMAT_VERSION + 1)))],
              "kind": [draw(st.sampled_from(["mixture", "mixture+cptv", "x"]))],
              "K": [str(K)], "M": [str(M)], "V": [str(V)],
              "theta": tokens("theta", K, 1 / K if K else 0.0),
              "beta": tokens("beta", V * M * K, 1 / V if V else 0.0)}
    for key, n, value in (("mu", V, 0.5), ("xi1", V, 2.0), ("xi0", V, 2.0),
                          ("alpha", 1, 2.0), ("phi", 1, 2.0), ("z", 1, 0),
                          ("mu_mode", 1, "learn")):
        if draw(st.booleans()):
            fields[key] = tokens(key, n, value)
    return "".join(f"{k} {' '.join(v)}\n" for k, v in fields.items())


@given(text=_model_files())
def test_load_gives_a_model_or_a_missmix_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("prop") / "m.model"
    path.write_text(text, encoding="utf-8")
    try:
        load_model(path)
    except MissmixError:
        pass


@given(st.lists(st.floats(), max_size=8))
@example([-0.0])
@example([5e-324])                      # the smallest subnormal
@example([1 - 2**-53])                  # the largest float64 below 1
@example([np.nextafter(0.5, 0.0)])      # one ulp below 0.5
def test_a_float_array_token_round_trips_every_bit(values):
    array = np.array(values, dtype=float)
    token = "".join(_tokens("beta", array))
    assert len(token.split()) == (1 if values else 0)
    back = _parse("beta", token.split(), 1)
    assert back.dtype == np.float64 and back.tobytes() == array.tobytes()
    assert back.flags.writeable


def test_a_long_float_array_token_is_written_in_pieces_of_the_same_bytes():
    array = np.random.default_rng(0).random(2 * 2**15 + 3)
    pieces = list(_tokens("beta", array))
    assert [len(p) for p in pieces] == [16 * 2**15, 16 * 2**15, 16 * 3]
    assert "".join(pieces) == array.astype("<f8").tobytes().hex()


def test_comments_and_blanks_ignored(tmp_path):
    lines = ["# header", ""] + _base_lines() + ["", "# trailing"]
    model = load_model(_write(tmp_path, lines))
    assert model.params.theta.tolist() == [1.0]


@st.composite
def _models(draw):
    """A plain, fixed-mu or learned-mu model, with or without smoothing
    and assignments, and a mu_mode drawn apart from it; probabilities may
    come out very small."""
    K, M, V = (draw(st.integers(1, 4)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    conc = draw(st.sampled_from([0.01, 1.0, 100.0]))
    beta = rng.dirichlet(np.full(V, conc), size=(M, K)).transpose(2, 0, 1)
    smoothing = draw(st.sampled_from([None, 1.5, 2.0, 1e6]))
    params = MixtureParams(theta=rng.dirichlet(np.full(K, conc)),
                           beta=np.ascontiguousarray(beta), alpha=smoothing,
                           phi=None if smoothing is None else smoothing + 0.25)
    kind = draw(st.sampled_from(["plain", "fixed", "learn"]))
    cptv = None
    if kind != "plain":
        mu = rng.uniform(0, 1, V)
        prior = (1 + rng.uniform(0, 50, V), 1 + rng.uniform(0, 50, V))
        cptv = CptvParams(mu, *(prior if kind == "learn" else (None, None)))
    # assignments may fall outside 0..K-1, which the writer must refuse
    z = rng.integers(-1 if draw(st.booleans()) else 0, K + draw(st.integers(0, 1)),
                     draw(st.integers(0, 6))) if draw(st.booleans()) else None
    return params, cptv, draw(st.sampled_from([None, "fixed", "learn"])), z


@given(_models())
def test_save_then_load_round_trips_every_model(tmp_path_factory, model):
    params, cptv, mu_mode, z = model
    path = tmp_path_factory.mktemp("model") / "m.model"
    # the writer refuses exactly a z entry outside 0..K-1, which the reader
    # would refuse, and a mu_mode that disagrees with cptv; a plain model
    # ignores its mu_mode
    implied = None if cptv is None else "fixed" if cptv.xi1 is None else "learn"
    K = params.n_components
    if z is not None and not ((z >= 0) & (z < K)).all():
        with pytest.raises(ConfigurationError, match=rf"z entries .* in 0\.\.{K - 1}$"):
            save_model(path, params, cptv=cptv, mu_mode=mu_mode, z=z)
        assert not path.exists()
        return
    if implied is not None and mu_mode not in (None, implied):
        with pytest.raises(ConfigurationError, match=f"expected mu_mode '{implied}'"):
            save_model(path, params, cptv=cptv, mu_mode=mu_mode, z=z)
        assert not path.exists()
        return
    save_model(path, params, cptv=cptv, mu_mode=mu_mode, z=z)
    back = load_model(path)

    def same(x, y):
        return x is None and y is None or (
            np.asarray(x).shape == np.asarray(y).shape
            and np.asarray(x).tobytes() == np.asarray(y).tobytes())

    assert same(back.params.theta, params.theta) and same(back.params.beta, params.beta)
    assert back.params.alpha == params.alpha and back.params.phi == params.phi
    assert (back.cptv is None) == (cptv is None)
    assert back.mu_mode == (None if cptv is None else mu_mode)
    if cptv is not None:
        assert all(same(getattr(back.cptv, k), getattr(cptv, k))
                   for k in ("mu", "xi1", "xi0"))
    assert same(back.z, None if z is None else np.asarray(z, dtype=np.int64))
