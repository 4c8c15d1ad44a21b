"""Input fuzzing: random config documents and random CLI argument lists.

A malformed input may only end as a QZerosError, an argparse refusal
included: exit 2 with one ``error:`` line.  A well-formed one exits 0 or 1.
No input may leak another exception or print a traceback.

Exact roots are fuzzed too: relation decisions on products of planted
rational linear factors must match the relation of the planted roots.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from qzeros import (
    GridSpec,
    InvalidParameterError,
    PolyExact,
    QZerosError,
    Relation,
    check_identity,
    interlace,
    isolate_real_roots,
    rat,
    zerowise_compare,
)
from qzeros.cli import main
from qzeros.qcore import MAX_COUNT, MAX_EXPONENT
from qzeros.verify import _CONFIG_KEYS

# exponent form: small exponents, which parse, and ones past
# qcore.MAX_EXPONENT, which exit 2 at once
_EXPONENT_TEXT = st.one_of(
    st.builds("{}{}{}".format, st.sampled_from(["1", "-2", "2.5", ".5", "0", "7/"]),
              st.sampled_from(["e", "E"]), st.integers(-30, 30)),
    st.builds("1e{}{}".format, st.sampled_from(["", "-", "+"]), st.integers(10**4 + 1, 10**8)),
    st.sampled_from(["1e", "e5", "1e1_0", "1e-0", "1e--3", "1e-10000000"]),
)
_RATIONAL_TEXT = st.one_of(
    st.sampled_from(["1/2", "3/4", "-1/2", "0", "1", "2", "1/0", "0/0", "abc", "", " 1/3 ", "1e3", "-"]),
    st.text(alphabet="0123456789/-.e ", max_size=6),
    _EXPONENT_TEXT,
)
_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 10),
    st.floats(allow_nan=True, allow_infinity=True),
    _RATIONAL_TEXT,
    st.text(max_size=8),
)
_JSON = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# mostly the real keys, with lists of scalars as values, so parsing reaches
# the value checks and not only the unknown-key check
_CONFIG = st.dictionaries(
    st.sampled_from((*_CONFIG_KEYS, "qvalues")),
    st.one_of(st.lists(_SCALAR, max_size=4), _SCALAR),
    max_size=len(_CONFIG_KEYS),
)


@given(doc=st.one_of(_CONFIG, _JSON))
@settings(max_examples=400, deadline=None)
def test_grid_from_json_raises_only_toolkit_errors(doc):
    try:
        grid = GridSpec.from_json(doc)
    except QZerosError:  # ConfigError, or a q outside (0, 1), or eps <= 0
        return
    assert isinstance(grid, GridSpec)
    assert all(type(n) is int and n >= 0 for n in grid.n_values)
    parsed = [v for raw in doc.values() for v in (raw if isinstance(raw, list) else [raw])]
    assert not any(isinstance(v, bool) for v in parsed)  # JSON true/false are not values


# Raw grid values of every kind a config or a caller in code may give: counts
# inside and past 0..MAX_COUNT, integral and non-integral Fractions, strings,
# booleans and floats.
_RAW = st.one_of(
    st.integers(-3, 12),
    st.integers(MAX_COUNT - 2, MAX_COUNT + 2),
    st.integers(MAX_COUNT + 1, 10**40),
    st.integers(-3, 12).map(Fraction),
    st.fractions(-3, 3, max_denominator=6),
    _RATIONAL_TEXT,
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
)
_FIELDS = st.fixed_dictionaries(
    {"q_values": st.lists(_RAW, max_size=3), "n_values": st.lists(_RAW, max_size=3)},
    optional={
        "a_values": st.lists(_RAW, max_size=3),
        "b_values": st.lists(_RAW, max_size=3),
        "t_values": st.lists(_RAW, max_size=3),
        "eps": _RAW,
        "check_ids": st.lists(st.one_of(st.sampled_from(["sw-lmesh", "contig-1"]), _RAW), max_size=3),
    },
)


def _outcome(make):
    """What ``make()`` returns, or the type and message of the toolkit error
    it raises; any other exception fails the test."""
    try:
        return make()
    except QZerosError as exc:
        return type(exc), str(exc)


@given(fields=_FIELDS)
@settings(max_examples=400, deadline=None)
def test_library_grid_fails_exactly_as_its_config_does(fields):
    """GridSpec(**fields) and GridSpec.from_json of the same raw values give
    equal grids, or raise the same error type with the same message; a grid
    that builds holds each n exactly as given."""
    doc = {key: fields[name] for key, name in _CONFIG_KEYS.items() if name in fields}
    from_code = _outcome(lambda: GridSpec(**fields))
    assert _outcome(lambda: GridSpec.from_json(doc)) == from_code
    if isinstance(from_code, GridSpec):
        assert all(type(n) is int and 0 <= n <= MAX_COUNT for n in from_code.n_values)
        assert from_code.n_values == [rat(n) for n in fields["n_values"]]


@given(value=_RAW)
@settings(max_examples=300, deadline=None)
def test_point_count_parses_as_a_grid_count(value):
    """check_identity reads n as a grid reads an n value: it refuses what the
    grid refuses, with the same message naming its own key, and keeps what
    the grid keeps, unchanged.  At b = 0 recip-1 skips before it builds."""
    grid = _outcome(lambda: GridSpec([Fraction(1, 2)], [value]))
    point = _outcome(lambda: check_identity("recip-1", {"q": "1/2", "n": value, "b": "0"}))
    if isinstance(grid, GridSpec):
        assert point.params == {"q": "1/2", "n": grid.n_values[0], "b": "0"}
    else:
        kind, message = grid
        assert point == (kind, message.replace("nValues", "n"))


_FAMILIES = st.sampled_from(
    ["little-q-jacobi", "little-q-laguerre", "q-laguerre", "stieltjes-wigert", "q-bessel",
     "normalized-little-q-jacobi", "e-factor", "no-such-family"]
)
_COUNT_TEXT = st.one_of(st.integers(-2, 4).map(str), st.sampled_from(["", "x", "1.5", "--", "2,3"]))


_GOOD_RATIONAL = st.sampled_from(["1/2", "1/4", "3/4", "-1/2", "0", "1"])


def _option(name: str, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _mostly(draw, name: str, good, bad, absent: int = 1) -> list[str]:
    """[name, value] with mostly a valid value: of 20 draws, 2 are malformed
    and ``absent`` leave the option out."""
    r = draw(st.integers(0, 19))
    return [] if r < absent else [name, draw(bad if r < absent + 2 else good)]


def _family_options(draw, suffix: str = "") -> list[str]:
    argv = _mostly(draw, "--family" + suffix, _FAMILIES, st.just("no-such-family"))
    argv += _mostly(draw, "--n" + suffix, st.integers(0, 4).map(str), _COUNT_TEXT)
    argv += _mostly(draw, "--a" + suffix, _GOOD_RATIONAL, _RATIONAL_TEXT, absent=5)
    argv += _mostly(draw, "--b" + suffix, _GOOD_RATIONAL, _RATIONAL_TEXT, absent=5)
    argv += _mostly(draw, "--k" + suffix, st.integers(1, 3).map(str), _COUNT_TEXT, absent=10)
    return argv


def _q_option(draw) -> list[str]:
    return _mostly(draw, "--q", st.sampled_from(["1/2", "1/3", "3/4"]), _RATIONAL_TEXT)


@st.composite
def _family_argv(draw):
    argv = [draw(st.sampled_from(["coeffs", "roots", "lmesh"]))]
    argv += _family_options(draw) + _q_option(draw)
    if argv[0] == "roots":
        argv += draw(_option("--eps", st.sampled_from(["1/16", "1/1024", "0", "-1", "abc", "1/0"])))
    if argv[0] == "lmesh":
        argv += draw(_option("--base", st.one_of(_GOOD_RATIONAL, _RATIONAL_TEXT)))
    return argv


@st.composite
def _interlace_argv(draw):
    return ["interlace"] + _family_options(draw) + _family_options(draw, "2") + _q_option(draw)


@st.composite
def _sweep_argv(draw):
    """--values, or --start/--stop/--steps (a few steps only), or both."""
    argv = ["sweep"] + _family_options(draw) + _q_option(draw)
    argv += _mostly(draw, "--vary", st.sampled_from(["a", "b"]), st.sampled_from(["k", "", "q"]))
    values = st.lists(_GOOD_RATIONAL, min_size=1, max_size=3).map(",".join)
    argv += _mostly(draw, "--values", values, _RATIONAL_TEXT, absent=10)
    argv += _mostly(draw, "--start", _GOOD_RATIONAL, _RATIONAL_TEXT, absent=10)
    argv += _mostly(draw, "--stop", _GOOD_RATIONAL, _RATIONAL_TEXT, absent=10)
    argv += _mostly(draw, "--steps", st.integers(1, 3).map(str), _COUNT_TEXT, absent=10)
    return argv


@st.composite
def _table1_argv(draw):
    argv = ["table1"]
    argv += draw(_option("--rows", st.sampled_from(["1", "3", "9,10", "0", "11", "a", "1,,2", "-1"])))
    argv += draw(_option("--samples", st.sampled_from(["1", "2", "0", "-1", "x"])))
    argv += draw(_option("--q", st.sampled_from(["1/2", "1/4,3/4", "2", "0", "abc", "1/2,"])))
    argv += ["--n", draw(st.sampled_from(["1", "2", "1,2", "0", "-1", "x", ""]))]  # keep degrees small
    return argv


@given(argv=st.one_of(_family_argv(), _interlace_argv(), _sweep_argv(), _table1_argv()))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_exits_cleanly_on_random_arguments(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 2:  # argparse's refusals included
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, (argv, err)


@given(text=_EXPONENT_TEXT)
@settings(max_examples=200, deadline=None)
def test_exponent_form_rationals_parse_exactly_or_are_rejected(text):
    """An exponent-form literal parses to its exact value when its exponent
    is within +-MAX_EXPONENT; beyond it, or when it is malformed, it raises
    InvalidParameterError, whose message tells the two apart."""
    try:
        value = rat(text)
    except InvalidParameterError as exc:
        if str(exc).startswith("malformed rational "):
            return
        assert str(exc).startswith("exponent of "), str(exc)
        assert abs(int(text.lower().rsplit("e", 1)[1])) > MAX_EXPONENT
        return
    mantissa, exponent = text.lower().rsplit("e", 1)
    assert value == rat(mantissa) * rat(10) ** int(exponent)


_PLANTED = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def _planted_pair(draw):
    """Zero lists of two products of up to 5 linear factors d x - c, of
    degrees equal or one apart, with some zeros shared."""
    shared = draw(st.lists(_PLANTED, max_size=3))
    n = draw(st.integers(max(len(shared), 1), 5))
    m = draw(st.sampled_from([k for k in (n - 1, n, n + 1) if max(len(shared), 1) <= k <= 5]))
    own = [draw(st.lists(_PLANTED, min_size=k - len(shared), max_size=k - len(shared))) for k in (n, m)]
    return sorted(shared + own[0]), sorted(shared + own[1])


def _product(zeros: list) -> PolyExact:
    """prod (d x - c) over the zeros c/d."""
    p = PolyExact((1,))
    for z in zeros:
        p = p * PolyExact((-z.numerator, z.denominator))
    return p


def _planted_interlace(p: list, r: list) -> tuple[Relation, int | None]:
    """The relation and witness of the alternating chain p_0 <= r_0 <= p_1
    <= ..., by Fraction comparisons of the planted zeros."""
    if len(r) == len(p) + 1:
        return Relation.NONE, None
    chain = []
    for k in range(len(r)):
        chain.append((p[k], r[k]))
        if k + 1 < len(p):
            chain.append((r[k], p[k + 1]))
    if all(a < b for a, b in chain):
        return Relation.STRICT_INTERLACE, None
    if all(a <= b for a, b in chain):
        return Relation.WEAK_INTERLACE, None
    witness = next(i for i, (a, b) in enumerate(chain) if a > b)
    if len(p) == len(r) and all(a <= b for a, b in zip(p, r)):
        return Relation.DOMINATES, witness
    return Relation.NONE, witness


@given(pair=_planted_pair(), eps=st.sampled_from([None, Fraction(1, 16)]))
@settings(max_examples=300, deadline=None)
def test_decisions_on_planted_rational_zeros(pair, eps):
    """interlace and zerowise_compare decide the relation of the planted
    zeros; each entry is exact exactly when its interval has width 0, and
    each exact value is a planted zero, before the decisions and after."""
    p, r = pair
    sets = [isolate_real_roots(_product(zeros), eps) for zeros in pair]

    def entries_are_planted():
        for rs, zeros in zip(sets, pair):
            for e in rs.roots:
                assert (e.exact is not None) == (e.lo == e.hi), (zeros, e.lo, e.hi)
                assert e.exact is None or e.exact in zeros, (zeros, e.exact)

    entries_are_planted()
    report = interlace(*sets)
    assert (report.relation, report.witness) == _planted_interlace(p, r), pair
    if len(p) == len(r):
        z = zerowise_compare(*sets)
        witness = next((k for k, (a, b) in enumerate(zip(p, r)) if a > b), None)
        assert (z.holds, z.witness, z.any_strict) == (witness is None, witness, any(a < b for a, b in zip(p, r)))
    entries_are_planted()
