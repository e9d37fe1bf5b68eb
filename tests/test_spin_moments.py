"""spins.moments against the set-by-set reference, by repr.

Every moment of one batched call must be the float that `ref_spins` gives
with one fsum over the signed weights of its set, and the float
`spins.expectation` gives for the set alone.
"""

import math

import pytest

from isinglab import spins
from isinglab.graphs import BoundarySpec, BoxGraph, Couplings, FieldSpec, Graph

import ref_spins


def _signed_couplings(graph, beta, seed):
    J = [(-1) ** ((e * 7 + seed) % 3 == 0) * (0.35 + 0.11 * ((e * 5 + seed) % 9))
         for e in range(graph.n_edges)]
    return Couplings(graph, J, beta)


def _mixed_fields(graph):
    return FieldSpec(graph.n, h={v: 0.05 * (v % 4) for v in graph.vertices},
                     g={v: 0.3 * (-1) ** v - 0.1 for v in graph.vertices
                        if v % 3})


def _sets(graph, clamp=()):
    """Pairs, a quadruple, singletons, repeated sites, the empty set, and
    sets differing only by clamped (minus) spins."""
    n = graph.n
    out = [[], [0], [n - 1], [0, n - 1], [1, n // 2], [0, 1, n - 2, n - 1],
           [2, 2], [1, 1, 3], [0, 3, 3, 3, 5], [4, 1, 4, 1]]
    for m in clamp:
        out += [[m], [m, 1], [1], [m, 1, n // 2], [1, n // 2], [m, m, 1]]
    return out


def _assert_moments(graph, couplings, sets, fields=None, boundary=None,
                    alone=None):
    """Batched and the first `alone` (all) sets on their own equal the
    reference by repr, and so does Z."""
    got = spins.moments(graph, couplings, sets, fields, boundary)
    want = ref_spins.moments(graph, couplings, sets, fields, boundary)
    assert list(map(repr, got)) == list(map(repr, want))
    alone = [spins.expectation(graph, couplings, A, fields, boundary)
             for A in sets[:alone]]
    assert list(map(repr, alone)) == list(map(repr, want[:len(alone)]))
    assert repr(spins.partition_function(graph, couplings, fields,
                                         boundary)) == repr(
        ref_spins.partition_function(graph, couplings, fields, boundary))


@pytest.mark.parametrize("beta", [0.05, 0.4, 0.9, 3.0])
@pytest.mark.parametrize("sides", [(3, 3), (3, 4)])
def test_signed_couplings_fields_and_clamps(sides, beta):
    box = BoxGraph(2, sides)
    c = _signed_couplings(box, beta, sum(sides))
    pm = box.dobrushin_boundary()
    minus = sorted(pm.minus_set)[:2]
    f = _mixed_fields(box)
    for fields, boundary in ((None, None), (f, None), (None, pm), (f, pm),
                             (f, box.plus_boundary())):
        clamp = minus if boundary is pm else ()
        _assert_moments(box, c, _sets(box, clamp), fields, boundary)


def test_sets_that_differ_by_a_clamped_minus_spin():
    # [x] and [x, m] with m clamped -1 share the free mask: their moments
    # are opposite, so a key without the clamp sign gives both one value
    box = BoxGraph(2, (3, 3))
    c = _signed_couplings(box, 0.6, 2)
    pm = box.dobrushin_boundary()
    m = min(pm.minus_set)
    sets = [[4], [4, m], [4, 1, m], [4, 1]]
    got = spins.moments(box, c, sets, _mixed_fields(box), pm)
    assert got[0] == -got[1] != 0.0 and got[2] == -got[3] != 0.0
    _assert_moments(box, c, sets, _mixed_fields(box), pm)


def test_repeated_sites_cancel():
    box = BoxGraph(2, (3, 3))
    c = _signed_couplings(box, 0.7, 1)
    f = _mixed_fields(box)
    got = spins.moments(box, c, [[3, 3], [3, 3, 5], [5], [0, 3, 0, 3], []],
                        fields=f)
    assert got[0] == got[3] == got[4] == 1.0
    assert got[1] == got[2] != 0.0
    _assert_moments(box, c, [[3, 3], [3, 3, 5], [5], [5, 5, 5]], f)


@pytest.mark.parametrize("n_free", [17, 19])
def test_streamed_chunks(n_free):
    # 2 and 8 chunks of 2^16 rows; sites past bit 16 set the chunk's
    # high-row parity
    n = n_free + 1
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1), (2, n - 3)]
    g = Graph(n, edges)
    c = _signed_couplings(g, 0.5, n)
    f = FieldSpec(n, h={0: 0.2, n - 2: 0.4}, g={1: -0.3, n - 3: 0.25})
    clamp = BoundarySpec({n // 2: BoundarySpec.MINUS})
    sets = [[0], [n - 1], [n - 2], [0, n - 1], [n - 3, n - 2, n // 2],
            [16, 17], [n // 2], [1, n - 1, n - 1]]
    _assert_moments(g, c, sets, f, clamp, alone=2)


@pytest.mark.parametrize("beta", [80.0, 700.0])
def test_shifted_chunks_and_subnormal_weights(beta):
    # past e^709 every chunk is shifted; at beta 700 most weights of the
    # signed box underflow to subnormals or zero
    box = BoxGraph(2, (3, 3))
    c = _signed_couplings(box, beta, 4)
    pm = box.dobrushin_boundary()
    for fields, boundary in ((None, None), (_mixed_fields(box), None),
                             (None, pm)):
        clamp = sorted(pm.minus_set)[:1] if boundary is pm else ()
        _assert_moments(box, c, _sets(box, clamp), fields, boundary)
    # 17 free spins: two chunks with different shifts
    g = Graph(17, [(i, i + 1) for i in range(16)] + [(0, 16)])
    cg = _signed_couplings(g, beta, 3)
    _assert_moments(g, cg, [[0], [16], [0, 16], [3, 9], [16, 16]],
                    FieldSpec(17, h={16: 0.5}, g={0: -0.2}))


def _ratio_moment_cases():
    """(graph, couplings_a, couplings_b, sets, boundary_a, boundary_b)."""
    out = []
    for sides in ((3, 3), (3, 5)):
        box = BoxGraph(2, sides)
        pm = box.dobrushin_boundary()
        out.append((box, Couplings(box, 1.0, 0.45), None,
                    [[4], [1, 4], [0, 4, 5]], pm, pm.all_plus()))
    box = BoxGraph(2, (3, 4))
    c = _signed_couplings(box, 0.6, 5)
    out.append((box, c, c.with_abs(), _sets(box), None, None))
    # 18 free spins streamed against the 8 of the clamped box
    box = BoxGraph(2, (3, 6))
    plus = box.plus_boundary()
    out.append((box, _signed_couplings(box, 0.4, 2), None, [[7], [7, 10]],
                None, plus))
    # past e^709: every chunk shifted and both partition functions inf
    box = BoxGraph(2, (3, 3))
    pm = box.dobrushin_boundary()
    out.append((box, Couplings(box, 1.0, 80.0), None,
                [[4], [min(pm.minus_set), 4]], pm, pm.all_plus()))
    return out


@pytest.mark.parametrize("g, ca, cb, sets, ba, bb", _ratio_moment_cases())
def test_ratio_moments_match_each_side_alone(g, ca, cb, sets, ba, bb):
    cb = ca if cb is None else cb
    ratio, ma, mb = spins.ratio_moments(g, ca, cb, sets, ba, bb)
    assert 0.0 < ratio < math.inf
    assert repr(ratio) == repr(spins.partition_ratio(g, ca, cb, ba, bb))
    (za, sa), (zb, sb) = (ref_spins.shifted_partition(g, c, boundary=b)
                          for c, b in ((ca, ba), (cb, bb)))
    assert repr(ratio) == repr(za / zb * math.exp(sa - sb))
    for got, c, b in ((ma, ca, ba), (mb, cb, bb)):
        assert list(map(repr, got)) == list(map(repr, spins.moments(
            g, c, sets, boundary=b)))
        assert list(map(repr, got)) == list(map(repr, ref_spins.moments(
            g, c, sets, boundary=b)))
    assert list(map(repr, ma)) != list(map(repr, mb))


def test_every_site_is_checked_before_any_table(monkeypatch):
    box = BoxGraph(2, (3, 3))
    c = Couplings(box, 1.0, 0.4)

    def touched(*args):
        raise AssertionError("a table was touched")

    monkeypatch.setattr(spins, "_chunks", touched)
    for bad in (9, -1, 1.0, "0"):
        with pytest.raises(ValueError, match="site %r" % (bad,)):
            spins.moments(box, c, [[0, 1], [2], [3, bad]])
    assert spins.moments(box, c, []) == []
    assert spins.moments(box, c, iter([])) == []


def test_size_error_before_weighing(monkeypatch):
    def weighed(*args):
        raise AssertionError("weighed past the cap")

    monkeypatch.setattr(spins, "_weigh", weighed)
    big = Graph(27, [(i, i + 1) for i in range(26)])
    with pytest.raises(spins.SizeError):
        spins.moments(big, Couplings(big, 1.0, 0.3), [[0, 26], [1]])
    # a stored table's size (9 free spins) still honours a smaller cap
    monkeypatch.setattr(spins, "DEFAULT_CAP", 8)
    box = BoxGraph(2, (3, 3))
    with pytest.raises(spins.SizeError):
        spins.moments(box, Couplings(box, 1.0, 0.3), [[0]])


# ---------------------------------------------------------------------------
# families: several instances on one graph and boundary, weighed together


def _assert_family(graph, asks, boundary=None):
    """Each ask of one family call equals the reference for its instance
    alone, by repr."""
    got = spins.family_moments(graph, asks, boundary)
    assert len(got) == len(asks)
    for (couplings, fields, sets), row in zip(asks, got):
        want = ref_spins.moments(graph, couplings, sets, fields, boundary)
        assert list(map(repr, row)) == list(map(repr, want))


def _field_family(graph, c, clamp=()):
    """Signed couplings under no field, an all-zero field, h only, g only
    (signed) and mixed fields, each asking its own sets."""
    n = graph.n
    sets = _sets(graph, clamp)
    return [(c, None, sets),
            (c, FieldSpec(n), sets[:4]),
            (c, FieldSpec(n, h={v: 0.2 for v in graph.vertices}), [[0]]),
            (c, FieldSpec(n, g={v: -0.3 * (v % 2) for v in graph.vertices}),
             sets[2:]),
            (c, _mixed_fields(graph), [[n - 1], [0, 1], [1, n - 1]] + sets),
            (c.with_beta(0.5 * c.beta), _mixed_fields(graph), sets[::-1]),
            (c.with_flipped([0, 3]), None, [[1, 2]])]


@pytest.mark.parametrize("beta", [0.05, 0.4, 3.0])
@pytest.mark.parametrize("sides", [(3, 3), (3, 4)])
def test_family_matches_each_instance_alone(sides, beta):
    box = BoxGraph(2, sides)
    c = _signed_couplings(box, beta, sum(sides))
    pm = box.dobrushin_boundary()
    _assert_family(box, _field_family(box, c))
    _assert_family(box, _field_family(box, c, sorted(pm.minus_set)[:2]), pm)
    _assert_family(box, _field_family(box, c), box.plus_boundary())


def test_family_mixes_stored_fresh_and_repeated_instances(monkeypatch):
    box = BoxGraph(2, (3, 3))
    c = _signed_couplings(box, 0.7, 5)
    f = _mixed_fields(box)
    # a call before the family does not spare it any weighing
    spins.family_moments(box, [(c, None, [[0, 8]]), (c, f, [[4]])])
    weighed = []
    weigh = spins._weigh

    def counted(graph, clamp, free, lo, members):
        weighed.append(len(members))
        return weigh(graph, clamp, free, lo, members)

    monkeypatch.setattr(spins, "_weigh", counted)
    sets = _sets(box)
    family = [(c, f, sets), (c.with_beta(1.1), None, sets[:3]),
              (c, None, sets), (c.with_beta(1.1), None, [[2, 3]]),
              (c, f, [[4], [5]]), (c.with_beta(0.2), f, sets[5:]),
              (c, FieldSpec(box.n), [[1]])]
    _assert_family(box, family)
    # the 4 distinct instances of the family (the all-zero field is no
    # field) are weighed as one stack, each once however often asked
    assert weighed == [4]


def test_family_streams_large_instances():
    # 17 free spins: two chunks of 2^16 rows per instance, each a stack of
    # one; the repeated instance is weighed once
    n = 17
    g = Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1), (2, 9)])
    c = _signed_couplings(g, 0.5, 2)
    f = FieldSpec(n, h={0: 0.2, 16: 0.4}, g={1: -0.3, 14: 0.25})
    _assert_family(g, [(c, f, [[0], [16], [0, 16]]),
                       (c.with_beta(0.9), None, [[3, 9], [16]]),
                       (c, f, [[1, 16]])])


@pytest.mark.parametrize("beta", [80.0, 700.0])
def test_family_shifts_each_instance_on_its_own(beta):
    # one stack holds instances at beta, at beta / 8 and at 0.4: each is
    # shifted by its own largest exponent, and at beta 700 most weights are
    # subnormal or zero
    box = BoxGraph(2, (3, 3))
    c = _signed_couplings(box, beta, 4)
    f = _mixed_fields(box)
    sets = _sets(box)
    pm = box.dobrushin_boundary()
    family = [(c, None, sets), (c.with_beta(beta / 8), f, sets),
              (c.with_beta(0.4), None, sets), (c, f, sets[:5])]
    _assert_family(box, family)
    _assert_family(box, family, pm)
    g = Graph(17, [(i, i + 1) for i in range(16)] + [(0, 16)])
    cg = _signed_couplings(g, beta, 3)
    _assert_family(g, [(cg, FieldSpec(17, h={16: 0.5}, g={0: -0.2}),
                        [[0], [16], [0, 16]]),
                       (cg.with_beta(0.3), None, [[3, 9], [16, 16]])])


def test_a_stack_never_exceeds_chunk_rows(monkeypatch):
    sizes = []
    weigh = spins._weigh

    def recorded(graph, clamp, free, lo, members):
        stack = weigh(graph, clamp, free, lo, members)
        sizes.append((len(members), len(stack[2])))
        return stack

    monkeypatch.setattr(spins, "_weigh", recorded)
    # forty 2^12-row instances: stacks of 16, 16 and 8
    g12 = Graph(12, [(i, i + 1) for i in range(11)] + [(0, 11)])
    family = [(_signed_couplings(g12, 0.1 + 0.01 * k, k), None, [[0, 5]])
              for k in range(40)]
    got = spins.family_moments(g12, family)
    assert sizes == [(16, 1 << 16), (16, 1 << 16), (8, 1 << 15)]
    for k in (0, 17, 39):
        assert repr(got[k][0]) == repr(ref_spins.moments(
            g12, family[k][0], [[0, 5]])[0])
    # three hundred 4-row instances: at most _MEMBERS to a stack
    sizes.clear()
    g2 = Graph(2, [(0, 1)])
    family = [(Couplings(g2, 1.0, 0.001 * (k + 1)), None, [[0, 1]])
              for k in range(300)]
    got = spins.family_moments(g2, family)
    assert sizes == [(spins._MEMBERS, 4 * spins._MEMBERS),
                     (300 - spins._MEMBERS, 4 * (300 - spins._MEMBERS))]
    for k in (0, 255, 256, 299):
        assert repr(got[k][0]) == repr(ref_spins.moments(
            g2, family[k][0], [[0, 1]])[0])


def test_fuzz_reports_do_not_depend_on_stacking(monkeypatch):
    from isinglab.inequalities import fuzz_inequalities

    def report(run):
        reports, worst = run
        return [repr((r.ineq_id, r.descriptor, r.lhs, r.rhs))
                for r in reports], repr(worst[:2])

    stacked = report(fuzz_inequalities(20, seed=3))
    family = spins.family_moments

    def alone(graph, asks, boundary=None):
        return [family(graph, [ask], boundary)[0] for ask in asks]

    monkeypatch.setattr(spins, "family_moments", alone)
    assert report(fuzz_inequalities(20, seed=3)) == stacked


def test_fuzz_weighs_few_stacks_a_trial(monkeypatch):
    # every suite asks its field and coupling family in one call, so a
    # trial weighs at most 8 stacks (it weighed about 17 instances apart)
    from isinglab.inequalities import fuzz_inequalities
    weighed = []
    weigh = spins._weigh
    monkeypatch.setattr(spins, "_weigh",
                        lambda *a: weighed.append(1) or weigh(*a))
    most = 0
    for seed in range(40):
        weighed.clear()
        fuzz_inequalities(1, seed=seed)
        most = max(most, len(weighed))
    assert 0 < most <= 8
