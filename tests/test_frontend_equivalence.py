"""Front-end equivalence: statement templates vs. the splice reference.

:class:`~repro.serve.params.Template` lexes and parses a ``?`` text once
and binds values into the tree.  The reference
(:func:`tests.oracles.splice_parse`) splices each value into the token
list as a literal token and parses again, as the serving layer once did.
Over templates that put ``?`` in every kind of slot, and values of every
bindable type (and some that are not), both must give the same tree, the
same plan-cache key and token count, or the same error.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import MachineConfig, PrismaDB
from repro.errors import ParseError
from repro.serve import PlanCache, Template
from repro.sql.ast import Param
from repro.sql.parser import parse_statement
from tests.oracles import splice_parse

#: Statement shapes, each with ``{}`` holes for clauses drawn below.
SHAPES = (
    "SELECT {items} FROM t WHERE {pred}{tail}",
    "SELECT DISTINCT {items} FROM t AS x JOIN u ON x.a = u.a WHERE {pred}"
    " ORDER BY 1 DESC{tail}",
    "SELECT {items} FROM t GROUP BY a HAVING {pred}",
    "SELECT {items} FROM t WHERE {pred} UNION SELECT {items} FROM u{tail}",
    "EXPLAIN SELECT {items} FROM t WHERE {pred}",
    "INSERT INTO t VALUES ({items}), ({items})",
    "INSERT INTO t (a, b) VALUES ({items})",
    "UPDATE t SET a = {item}, b = b + {item} WHERE {pred}",
    "DELETE FROM t WHERE {pred};",
    "CREATE TABLE n (a INT PRIMARY KEY, b VARCHAR({count}))"
    " FRAGMENTED BY HASH(a) INTO {count} WITH {count} REPLICAS",
    "CREATE TABLE n (a INT) FRAGMENTED BY RANGE(a) VALUES ({value}, {value})",
    "CREATE TABLE n (a INT) FRAGMENTED BY ROUNDROBIN INTO {count}",
)
#: Expression slots (``expr``).
ITEMS = ("?", "a", "-?", "? + a", "ABS(?)", "(? * 2)", "COUNT(*)", "'?--'", "1.5")
#: Predicates covering every slot kind.
PREDICATES = (
    "a = ?",
    "? < b",
    "a BETWEEN ? AND ?",
    "NOT a <> ?",
    "a IN (?, 2, ?)",  # literal
    "a NOT IN (-?, ?)",  # negative
    "a IN (-1, 'x', NULL)",
    "b LIKE ?",  # pattern
    "b NOT LIKE 'x%'",
    "a IS ?",  # null
    "a IS NOT ?",
    "b = '--?'",
)
TAILS = ("", " LIMIT ?", " LIMIT ? OFFSET ?", " LIMIT 3 OFFSET ?", " LIMIT 2")

texts = st.text(
    alphabet=st.sampled_from(list("ab' ?-\n%_é漢🙂")), max_size=8
)
values = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, 1, -1, 0.0, -0.0, 1.0, True, False, None]),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    texts,
)
unbindable = st.sampled_from([[1], b"x", {"a": 1}, (1,), 1j])


@st.composite
def statements(draw):
    shape = draw(st.sampled_from(SHAPES))
    items = ", ".join(draw(st.lists(st.sampled_from(ITEMS), min_size=1, max_size=3)))
    joiner = draw(st.sampled_from([" AND ", " OR "]))
    pred = joiner.join(
        draw(st.lists(st.sampled_from(PREDICATES), min_size=1, max_size=3))
    )
    sql = shape.format(
        items=items,
        item=draw(st.sampled_from(ITEMS[:6])),
        pred=pred,
        tail=draw(st.sampled_from(TAILS)),
        count=draw(st.sampled_from(["?", "4"])),
        value=draw(st.sampled_from(["?", "-?", "10"])),
    )
    holes = sum(1 for token_start in range(len(sql)) if _is_placeholder(sql, token_start))
    count = holes + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    params = draw(st.lists(values, min_size=max(count, 0), max_size=max(count, 0)))
    if params and draw(st.integers(0, 9)) == 0:
        params[draw(st.integers(0, len(params) - 1))] = draw(unbindable)
    return sql, params


def _is_placeholder(sql: str, at: int) -> bool:
    """Whether ``sql[at]`` is a ``?`` outside a string literal."""
    return sql[at] == "?" and sql[:at].count("'") % 2 == 0


def _outcome(run):
    try:
        return "ok", run()
    except ParseError as exc:
        return type(exc), str(exc)


def _template_path(sql, params):
    template = Template(sql)
    checked = template.check(params)
    return template.bind(checked), template.key(checked), template.token_count


def _exact(outcome):
    """Trees compare by repr too: ``Lit(1) == Lit(1.0) == Lit(True)``
    and ``Lit(0.0) == Lit(-0.0)`` under dataclass equality."""
    kind, result = outcome
    if kind != "ok":
        return outcome
    tree, key, tokens = result
    return tree, repr(tree), key, tokens


@settings(max_examples=400, deadline=None)
@given(statements())
def test_template_binding_matches_splice_then_parse(case):
    sql, params = case
    expected = _exact(_outcome(lambda: splice_parse(sql, params)))
    actual = _exact(_outcome(lambda: _template_path(sql, params)))
    assert actual == expected


@pytest.mark.parametrize(
    "sql, params",
    [
        ("SELECT ?, -?, ? FROM t", (1, 2.5, "x")),
        ("SELECT a FROM t WHERE a IN (?, -?, ?) AND b NOT IN (-?)", (None, 3, True, -0.0)),
        ("SELECT a FROM t WHERE b LIKE ? AND c IS NOT ?", ("%'?--é", None)),
        ("SELECT a FROM t LIMIT ? OFFSET ?", (5, 0)),
        ("CREATE TABLE n (a INT, b VARCHAR(?)) FRAGMENTED BY HASH(a) INTO ?", (8, 3)),
        ("CREATE TABLE n (a INT) FRAGMENTED BY RANGE(a) VALUES (-?, ?)", (7, 1.5)),
        ("UPDATE t SET a = -?, b = ? WHERE c BETWEEN ? AND ?", (1, False, 2, 3)),
    ],
)
def test_every_slot_kind_binds_like_the_reference(sql, params):
    expected = _exact(_outcome(lambda: splice_parse(sql, params)))
    assert expected[0] != ParseError
    assert _exact(_outcome(lambda: _template_path(sql, params))) == expected


@pytest.mark.parametrize(
    "sql, params, message",
    [
        ("SELECT a FROM t WHERE b LIKE ?", (7,), "LIKE expects a string pattern"),
        ("SELECT a FROM t LIMIT ?", (True,), "expected LIMIT count"),
        ("SELECT a FROM t LIMIT ?", (2.0,), "expected LIMIT count"),
        ("SELECT a FROM t OFFSET ?", ("1",), "expected OFFSET count"),
        ("SELECT a FROM t WHERE a IN (-?)", ("x",), "expected a number after '-'"),
        ("SELECT a FROM t WHERE a IN (-?)", (False,), "expected a number after '-'"),
        ("SELECT a FROM t WHERE a IS NOT ?", (0,), "expected NULL"),
        ("SELECT a FROM t WHERE a = ?", (object(),), "cannot bind"),
        ("SELECT a FROM t WHERE a = ? AND b = ?", (1,), "more placeholders"),
        ("SELECT a FROM t WHERE a = ?", (1, 2), "only 1 placeholder"),
    ],
)
def test_slot_kind_and_count_errors_match_the_reference(sql, params, message):
    with pytest.raises(ParseError, match=message) as reference:
        splice_parse(sql, params)
    with pytest.raises(ParseError) as template:
        _template_path(sql, params)
    assert str(template.value) == str(reference.value)


def test_template_tree_has_one_param_per_placeholder():
    template = Template("SELECT ?, a FROM t WHERE a IN (?, -?) AND b LIKE ? LIMIT ?")
    assert [slot.kind for slot in template.slots] == [
        "expr", "literal", "negative", "pattern", "integer",
    ]
    assert template.statement.items[0].expr == Param(0)
    assert template.statement.limit == Param(4)


def test_binding_leaves_the_template_alone_and_copies():
    template = Template("INSERT INTO t VALUES (?, 'x'), (2, ?)")
    before = repr(template.statement)
    first = template.bind(template.check((1, "a")))
    second = template.bind(template.check((1, "a")))
    assert first == second and first is not second
    assert first.rows is not second.rows
    assert repr(template.statement) == before
    constant = Template("SELECT a FROM t")
    bound = constant.bind(())
    assert bound == constant.statement
    assert bound is not constant.statement
    assert bound.from_items is not constant.statement.from_items


def test_direct_path_rejects_a_stray_placeholder_with_its_position():
    with pytest.raises(ParseError, match="line 1, column 23") as caught:
        parse_statement("SELECT a FROM t WHERE ? = a")
    assert "'?'" in str(caught.value)
    db = PrismaDB(MachineConfig(n_nodes=4, disk_nodes=(0,)))
    db.execute("CREATE TABLE t (a INT)")
    with pytest.raises(ParseError):
        db.execute("SELECT a FROM t WHERE a = ?")


def test_template_dict_is_bounded_fifo_and_apart_from_plan_counters():
    cache = PlanCache(capacity=3)
    texts = [f"SELECT a FROM t WHERE a = {i}" for i in range(4)]
    for text in texts:
        cache.template(text)
    stats = cache.stats()
    assert stats["templates"] == 3
    assert stats["template_misses"] == 4
    # The oldest text was evicted: it parses again; the others hit.
    kept = cache.template(texts[1])
    assert cache.template(texts[1]) is kept
    assert cache.template_hits == 2
    cache.template(texts[0])
    assert cache.template_misses == 5
    stats = cache.stats()
    assert (stats["lookups"], stats["hits"], stats["misses"], stats["entries"]) == (
        0, 0, 0, 0,
    )
    assert stats["evictions"] == 0


def test_templates_survive_ddl_and_parse_once_per_text():
    db = PrismaDB(MachineConfig(n_nodes=4, disk_nodes=(0,)))
    db.execute("CREATE TABLE kv (id INT PRIMARY KEY, v INT)")
    cursor = db.connect().cursor()
    for key in range(5):
        cursor.execute("INSERT INTO kv VALUES (?, ?)", (key, key))
    cache = db.gdh.plan_cache
    assert (cache.template_misses, cache.template_hits) == (1, 4)
    assert cache.stats()["lookups"] == 5
    cursor.execute("CREATE INDEX kv_v ON kv (v)")
    cursor.execute("INSERT INTO kv VALUES (?, ?)", (9, 9))
    assert cache.template_misses == 2  # the CREATE INDEX text only
    assert db.query("SELECT COUNT(*) FROM kv") == [(6,)]
