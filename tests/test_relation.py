"""Table loading, partitions, stripping, and products."""
from __future__ import annotations

import ast
import csv
import io
import pickle
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ontofd.relation import (
    Partition,
    RelationError,
    attr_set,
    load_relation,
    partition,
    refine,
    relation_from_rows,
    strip,
)
from ontofd.repair import inject_errors
from ontofd.verify import support_synonym

from conftest import CC, CTRY, DATA, DIAG, SYMP
from gen import random_relation, synth_relation
from oracle import naive_partition


def test_load_clinical_sample(clinical):
    assert clinical.n == 7
    assert clinical.schema == ("id", "CC", "CTRY", "SYMP", "DIAG", "MED")


def test_header_only_gives_empty_relation():
    r = load_relation(io.StringIO("a,b,c\n"))
    assert r.n == 0 and r.schema == ("a", "b", "c")


def test_load_errors():
    with pytest.raises(RelationError, match="row 2"):
        load_relation(io.StringIO("a,b\n1,2\n3\n"))
    for empty in ("", "\ufeff"):
        with pytest.raises(RelationError, match="empty input"):
            load_relation(io.StringIO(empty))
    with pytest.raises(RelationError, match="duplicate attribute"):
        load_relation(io.StringIO("a,a\n1,2\n"))
    with pytest.raises(RelationError, match="not valid UTF-8"):
        load_relation(io.TextIOWrapper(io.BytesIO(b"a,b\n\xff,2\n"), encoding="utf-8"))
    # a blank first line is a header without attributes
    for header in (True, False):
        for blank in ("\n", "\ufeff\n"):
            with pytest.raises(RelationError, match="first row has no cells"):
                load_relation(io.StringIO(blank), header=header)
        with pytest.raises(RelationError, match="first row has no cells"):
            load_relation(io.StringIO("\na,b\n1,2\n"), header=header)
    # the csv module's field size limit, 131,072 characters
    with pytest.raises(RelationError, match="line 3: field larger than field limit"):
        load_relation(io.StringIO("a,b\n1,2\n" + "x" * 131_073 + ",3\n"))
    assert load_relation(io.StringIO("a\n" + "x" * 131_072 + "\n")).rows == (("x" * 131_072,),)
    # a quote left open would swallow the rest of the file into one cell,
    # and text after a closing quote would be glued onto the field
    with pytest.raises(RelationError, match="line 3: unexpected end of data"):
        load_relation(io.StringIO('a,b\n1,"x\n2,3\n'))
    with pytest.raises(RelationError, match="line 2: ',' expected after '\"'"):
        load_relation(io.StringIO('a,b\n"1" ,2\n'))


def test_trailing_blank_lines_are_dropped(tmp_path, clinical):
    text = (DATA / "clinical.csv").read_text(encoding="utf-8")
    for extra in ("\n", "\n\n", "\r\n"):
        path = tmp_path / "blank.csv"
        path.write_text(text + extra, encoding="utf-8", newline="")
        for source in (path, io.StringIO(text + extra)):
            assert load_relation(source) == clinical
    assert load_relation(io.StringIO("1,2\n\n"), header=False).rows == (("1", "2"),)
    assert load_relation(io.StringIO("a,b\n\n")).n == 0
    assert relation_from_rows(["a"], [("x",), (), ()]) == relation_from_rows(["a"], [("x",)])
    # a blank line with data after it is still a row without cells
    with pytest.raises(RelationError, match="row 1 has 0 cells"):
        relation_from_rows(["a"], [(), ("x",)])
    lines = text.splitlines(keepends=True)
    with pytest.raises(RelationError, match="row 4 has 0 cells, expected 6"):
        load_relation(io.StringIO("".join(lines[:4] + ["\n"] + lines[4:] + ["\n"])))


def test_leading_bom_is_dropped(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeffA,B\n\ufeffx,y\n".encode("utf-8"))
    for source in (path, str(path), io.StringIO("\ufeffA,B\n\ufeffx,y\n")):
        r = load_relation(source)
        # only the mark that starts the input goes
        assert r.schema == ("A", "B") and r.rows == (("\ufeffx", "y"),)
    r = load_relation(io.StringIO("\ufeff1,2\n"), header=False)
    assert r.rows == (("1", "2"),)
    # the mark goes before parsing, so a quote after it still opens a field
    for text, schema in (('\ufeff"id","v"\n', ("id", "v")), ('\ufeff"a,b",c\n', ("a,b", "c"))):
        path.write_bytes(text.encode("utf-8"))
        for source in (path, io.StringIO(text)):
            assert load_relation(source).schema == schema


def test_load_without_header_and_delimiter():
    r = load_relation(io.StringIO("1|2|3\n4|5|6\n"), delimiter="|", header=False)
    assert r.schema == ("A1", "A2", "A3")
    assert r.rows == (("1", "2", "3"), ("4", "5", "6"))


def test_quoted_cells():
    r = load_relation(io.StringIO('a,b\n"x,y",z\n'))
    assert r.rows == (("x,y", "z"),)
    # a quote inside an unquoted field stays a plain character
    assert load_relation(io.StringIO('a,b\n1,x"y\n')).rows == (("1", 'x"y'),)


def test_partition_country_code(clinical):
    p = partition(clinical, (CC,))
    assert p.classes == ((0, 4, 5), (1, 3, 6), (2,))


def test_partition_empty_attrset_is_one_class(clinical):
    p = partition(clinical, ())
    assert p.classes == (tuple(range(7)),)


def test_partition_key_is_all_singletons(clinical):
    p = partition(clinical, attr_set(range(6)))
    assert all(len(c) == 1 for c in p.classes)
    assert p.is_superkey


def test_partition_unknown_attribute(clinical):
    with pytest.raises(RelationError, match="unknown attribute"):
        partition(clinical, (99,))


def test_strip_removes_singletons(clinical):
    sp = strip(partition(clinical, (CC,)))
    assert sp.classes == ((0, 4, 5), (1, 3, 6))
    assert sp.covered_count == 6
    all_single = strip(partition(clinical, attr_set(range(6))))
    assert all_single.classes == () and all_single.is_superkey
    one_class = strip(partition(clinical, ()))
    assert one_class.classes == (tuple(range(7)),)


def product(p, q, r):
    """The stripped partition over both attribute sets: ``p`` refined by each
    attribute of ``q`` in turn, as discovery builds a node's partition."""
    for a in q.over:
        p = refine(p, r, a)
    return p


def test_product_symptom_diagnosis(clinical):
    left = strip(partition(clinical, (SYMP,)))
    right = strip(partition(clinical, (DIAG,)))
    combined = product(left, right, clinical)
    assert combined.classes == ((0, 1, 2), (3, 4, 5))
    # recomputed directly from the table
    assert combined == strip(partition(clinical, (SYMP, DIAG)))


def test_product_with_empty_absorbs(clinical):
    empty = strip(partition(clinical, attr_set(range(6))))
    other = strip(partition(clinical, (CC,)))
    assert product(empty, other, clinical).classes == ()
    assert product(other, empty, clinical).classes == ()


def test_product_idempotent_and_commutative(clinical):
    a = strip(partition(clinical, (CC,)))
    b = strip(partition(clinical, (CTRY,)))
    assert product(a, a, clinical).classes == a.classes
    assert product(a, b, clinical) == product(b, a, clinical)


def test_product_equals_direct_partition_on_random_tables():
    rng = random.Random(21)
    for _ in range(50):
        r = random_relation(rng)
        n_attrs = len(r.schema)
        x = attr_set(rng.sample(range(n_attrs), rng.randint(1, n_attrs - 1)))
        rest = [a for a in range(n_attrs) if a not in x]
        y = attr_set(rng.sample(rest, rng.randint(1, len(rest)))) if rest else x
        got = product(strip(partition(r, x)), strip(partition(r, y)), r)
        want = strip(partition(r, attr_set(x + y)))
        assert got == want
        a = rng.randrange(n_attrs)
        assert refine(strip(partition(r, x)), r, a) == strip(partition(r, attr_set(x + (a,))))


@st.composite
def paired_relations(draw):
    """Tables whose columns mostly group rows in pairs.

    Each column labels the rows by a shuffled row number divided by a group
    size; at size 2 every class of the column is a pair, and products of
    such columns are mostly pairs and singletons.
    """
    n = draw(st.integers(0, 14))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(range(n)))
        size = draw(st.sampled_from([1, 2, 2, 3]))
        columns.append([str(i // size) for i in order])
    return relation_from_rows([f"A{i}" for i in range(len(columns))], zip(*columns))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(paired_relations(), st.data())
def test_refine_and_product_equal_direct_partition_on_pairs(r, data):
    subsets = st.lists(st.integers(0, len(r.schema) - 1), max_size=3).map(attr_set)
    x, y = data.draw(subsets), data.draw(subsets)
    a = data.draw(st.integers(0, len(r.schema) - 1))
    p, q = strip(partition(r, x)), strip(partition(r, y))
    assert product(p, q, r) == strip(partition(r, attr_set(x + y)))
    assert refine(p, r, a) == strip(partition(r, attr_set(x + (a,))))
    # refining a full partition builds the full one with one-tuple classes
    # kept, and the stripped one without
    assert refine(partition(r, x), r, a, 1) == partition(r, attr_set(x + (a,)))
    assert refine(partition(r, x), r, a) == strip(partition(r, attr_set(x + (a,))))


# The five ways the labels of a class of three tuples can fall, in tuple
# order: all equal, each of the three pairs equal, all distinct.
THREE_LABELS = ("xxx", "xxy", "xyx", "yxx", "xyz")


def labelled_relation(classes, labels):
    """A table over the tuples of ``classes`` whose columns 0 and 2 name
    each tuple's class and whose column 1 holds ``labels[t]``."""
    name = {t: str(i) for i, cls in enumerate(classes) for t in cls}
    rows = [(name[t], labels[t], name[t]) for t in sorted(name)]
    return relation_from_rows(["C", "L", "D"], rows)


@st.composite
def labelled_classes(draw):
    """Classes of 1 to 6 tuples over shuffled tuple ids, ordered by their
    first id, with a label per tuple; a class of three takes one of the
    five label patterns."""
    sizes = draw(st.lists(st.integers(1, 6), max_size=8))
    ids = draw(st.permutations(range(sum(sizes))))
    classes, labels, start = [], {}, 0
    for size in sizes:
        cls = tuple(sorted(ids[start:start + size]))
        start += size
        if size == 3:
            pattern = draw(st.sampled_from(THREE_LABELS))
        else:
            pattern = draw(st.text("xyz", min_size=size, max_size=size))
        labels.update(zip(cls, pattern))
        classes.append(cls)
    classes.sort()
    return labelled_relation(classes, labels), tuple(classes)


# Each of the five patterns once, in classes interleaved by tuple id.
EVERY_THREE = [(0, 5, 10), (1, 6, 11), (2, 7, 12), (3, 8, 13), (4, 9, 14)]
EVERY_THREE_LABELS = {
    t: THREE_LABELS[i][j] for i, cls in enumerate(EVERY_THREE) for j, t in enumerate(cls)
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(labelled_classes(), st.sampled_from([(0,), (2,)]), st.sampled_from([1, 2]))
@example((labelled_relation(EVERY_THREE, EVERY_THREE_LABELS), tuple(EVERY_THREE)), (0,), 1)
@example((labelled_relation(EVERY_THREE, EVERY_THREE_LABELS), tuple(EVERY_THREE)), (2,), 2)
def test_refine_equals_naive_grouping_of_small_classes(case, over, least):
    # ``partition`` runs the same splitter as ``refine``; this checks the
    # closed forms for small classes against grouping by label strings
    r, classes = case
    if least == 2:
        classes = tuple(c for c in classes if len(c) >= 2)
    got = refine(Partition(over, classes), r, 1, least)
    joined = attr_set(over + (1,))
    want = [tuple(c) for c in naive_partition(r.rows, joined) if len(c) >= least]
    assert got == Partition(joined, tuple(sorted(want)))
    assert [c[0] for c in got.classes] == sorted(c[0] for c in got.classes)
    assert all(list(c) == sorted(c) for c in got.classes)


def test_is_superkey_means_every_class_is_one_tuple():
    rng = random.Random(25)
    seen = set()
    for _ in range(200):
        r = random_relation(rng, max_attrs=6, max_rows=12)
        x = attr_set(rng.sample(range(len(r.schema)), rng.randint(0, len(r.schema))))
        for p in (partition(r, x), strip(partition(r, x))):
            want = all(len(c) == 1 for c in p.classes)
            assert p.is_superkey == want
            seen.add((want, len(p.classes[0]) == 1 if p.classes else None))
    # superkeys and not, including full partitions that open with a
    # one-tuple class but are no superkey
    assert {(True, True), (False, True), (False, False)} <= seen


def test_pair_outside_the_other_partition_is_dropped():
    # rows 0 and 1 share A0 but are singletons under A1, so they fall out of
    # the stripped product; rows 2 and 3 agree on both, rows 4 and 5 on A0 only
    r = relation_from_rows(
        ["A0", "A1"], [("p", "u"), ("p", "v"), ("q", "w"), ("q", "w"), ("s", "w"), ("s", "x")]
    )
    p, q = strip(partition(r, (0,))), strip(partition(r, (1,)))
    assert p.classes == ((0, 1), (2, 3), (4, 5)) and q.classes == ((2, 3, 4),)
    want = strip(partition(r, (0, 1)))
    assert want.classes == ((2, 3),)
    assert want == refine(p, r, 1)


def test_partition_matches_naive_grouping():
    rng = random.Random(22)
    for _ in range(30):
        r = random_relation(rng)
        for size in (0, 1, 2, 3):
            x = attr_set(rng.sample(range(len(r.schema)), min(size, len(r.schema))))
            got = [list(c) for c in partition(r, x).classes]
            want = sorted(naive_partition(r.rows, x), key=lambda c: c[0])
            assert got == want


def test_class_count_monotone_in_attributes():
    rng = random.Random(23)
    for _ in range(20):
        r = random_relation(rng)
        attrs: list[int] = []
        previous = 1
        for a in range(len(r.schema)):
            attrs.append(a)
            count = len(partition(r, attr_set(attrs)).classes)
            assert count >= previous
            previous = count


def test_product_scales_roughly_linearly():
    # Smoke check only: doubling the covered count must not blow up the cost.
    rng = random.Random(24)

    def timed(n_rows: int) -> float:
        rows = [(str(rng.randrange(50)), str(rng.randrange(50))) for _ in range(n_rows)]
        r = relation_from_rows(["a", "b"], rows)
        left = strip(partition(r, (0,)))
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            refine(left, r, 1)
            best = min(best, time.perf_counter() - start)
        return best

    timed(2000)  # warmup
    assert timed(80_000) <= 6 * timed(40_000)


def test_relation_pickles_after_encoding(clinical, clinical_ontology):
    relation = relation_from_rows(clinical.schema, clinical.rows)
    support_synonym(relation, clinical_ontology, strip(partition(relation, (CC,))), CTRY)
    copy = pickle.loads(pickle.dumps(relation))
    assert copy == relation and copy.columns[CTRY].codes == relation.columns[CTRY].codes


def test_pickle_leaves_out_the_rows_view():
    # ``rows`` is decoded on every read and never stored; the pickle holds
    # only the columns
    relation = synth_relation(random.Random(1), 2000)
    before = pickle.dumps(relation)
    assert relation.rows
    assert pickle.dumps(relation) == before
    copy = pickle.loads(before)
    assert "rows" not in vars(copy) and copy == relation
    assert copy.rows == relation.rows


# Cells mixing quotes, delimiters, line breaks, blanks and non-ASCII text;
# no NUL and no byte-order mark, which a leading cell would lose.
CELLS = st.text(
    st.sampled_from(['"', ",", "\n", "\r", " ", "a", "é", "字"])
    | st.characters(blacklist_characters="\x00\ufeff", blacklist_categories=("Cs",)),
    max_size=5,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(CELLS, min_size=1, max_size=4, unique=True), st.data(), st.booleans())
def test_loaded_csv_equals_constructed_relation(schema, data, bom):
    row = st.lists(CELLS, min_size=len(schema), max_size=len(schema))
    rows = data.draw(st.lists(row, max_size=8))
    text = io.StringIO()
    csv.writer(text).writerows([schema, *rows])
    loaded = load_relation(io.StringIO("\ufeff" * bom + text.getvalue()))
    built = relation_from_rows(schema, rows)
    # pickled before ``rows`` is read, so the copy decodes its own
    copy = pickle.loads(pickle.dumps(loaded))
    assert loaded.schema == built.schema == copy.schema == tuple(schema)
    assert loaded.n == built.n == len(rows)
    assert loaded.rows == built.rows == copy.rows == tuple(map(tuple, rows))
    for got, want in zip(loaded.columns, built.columns, strict=True):
        assert got.codes == want.codes and got.values == want.values
    assert loaded == built == copy


def test_every_exported_name_resolves():
    import ontofd

    for name in ontofd.__all__:
        assert getattr(ontofd, name) is not None, name


def test_no_module_imports_a_name_it_never_loads():
    # ``__init__`` imports what it exports; every other import is used
    import ontofd

    unused = []
    for path in sorted(Path(ontofd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        kept = {"annotations", *(ontofd.__all__ if path.name == "__init__.py" else ())}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded and name not in kept:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_top_level_definition_is_named_elsewhere():
    # a top-level ``def`` or ``class`` that no other statement in the
    # package names, that is not exported, and that neither the README nor
    # the project file names, is dead code
    import ontofd

    root = Path(__file__).parents[1]
    documented = "".join(
        (root / name).read_text(encoding="utf-8") for name in ("README.md", "pyproject.toml")
    )
    statements = []
    for path in sorted(Path(ontofd.__file__).parent.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            named = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    named.update(alias.name for alias in node.names)
            statements.append((path.name, statement, named))
    dead = [
        f"{module}:{statement.lineno} {statement.name}"
        for module, statement, _ in statements
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
        and not any(
            statement.name in named for _, other, named in statements if other is not statement
        )
        and statement.name not in ontofd.__all__
        and not re.search(rf"\b{statement.name}\b", documented)
    ]
    assert dead == []


def test_relation_without_attributes_keeps_its_rows():
    r = relation_from_rows([], [(), ()])
    assert r.n == 2 and r.rows == ((), ()) and r.columns == ()
    assert inject_errors(r, 0.5, seed=0) == (r, [])


def test_ragged_rows_rejected_by_constructor():
    with pytest.raises(RelationError, match="row 1"):
        relation_from_rows(["a", "b"], [("1",)])
