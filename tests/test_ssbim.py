import hashlib
import json
from fractions import Fraction

import pytest

from fraylab import criteria, ssbim
from fraylab.grading import MultiDegree
from fraylab.hochschild import compose_bimodules, hh_operators
from fraylab.homalg import PM_ONE, CheckReport, Entry, PMono, SdrData, homology_truncated
from fraylab.qseries import Laurent, Window, f_factor, quantum_binomial, quantum_int
from fraylab.ssbim import (
    UNZIP_RULES,
    basis_change_check,
    build_identity,
    build_W,
    cn_family,
    cone_iota_eliminate,
    extended_thin_family,
    graded_rank_check,
    ladder_collapse,
    projector,
)
from fraylab.symfun import (
    BOTTOM,
    MIDDLE,
    TOP,
    Composition,
    Poly,
    block_differences,
    compositions,
    e_gen,
    eval_at_point,
    g_polys,
)


# -- merge-split bimodules -------------------------------------------------------

def test_identity_bimodule_collapses():
    ident = build_identity(Composition.of(2))
    # relations identify primed with unprimed: ring ~ Sym(x1,x2)
    dims = [ident.ring.dim(d) for d in range(0, 12, 2)]
    # 1, e1, (e1^2, e2), ... partitions into parts <= 2
    assert dims == [1, 1, 2, 2, 3, 3]
    assert ident.qshift == 0


def test_W11_rank_is_quantum_two():
    W = build_W(Composition.of(1, 1))
    assert W.qshift == 1
    assert graded_rank_check(Composition.of(1, 1), 14)


@pytest.mark.parametrize("parts", [(1, 1), (2, 1), (1, 1, 1), (3, 1), (2, 2), (1, 1, 1, 1)])
def test_blamgon_rank_windowed(parts):
    assert graded_rank_check(Composition(parts), 12)


def _alphabet(comp: Composition, side: int) -> set:
    return {e_gen(j, k, side) for j, size in enumerate(comp.parts, start=1)
            for k in range(1, size + 1)}


@pytest.mark.parametrize("top, bottom", [((1, 1), (2,)), ((2, 1), (1, 2)), ((1, 1, 1), (3,))])
def test_ring_generators_are_named_by_side(top, bottom):
    """Every ring generator is ("e", side, j, k) of degree q^{2k}: e_k of
    block j of that side's composition, with the middle side only in
    composites; relations use no other symbol."""
    a, b = Composition(top), Composition(bottom)
    rings = [
        (build_W(a, b), _alphabet(a, TOP) | _alphabet(b, BOTTOM)),
        (build_identity(a), _alphabet(a, TOP) | _alphabet(a, BOTTOM)),
        (compose_bimodules(build_W(a, b), build_W(b, a)),
         _alphabet(a, TOP) | _alphabet(a, BOTTOM) | _alphabet(b, MIDDLE)),
    ]
    for M, want in rings:
        spec = M.ring.spec
        assert {g for g, _ in spec.generators} == want
        assert all(d == 2 * g[3] for g, d in spec.generators)
        assert set().union(*(r.gens() for r in spec.relations)) <= want


def test_total_mismatch_rejected():
    with pytest.raises(ValueError):
        build_W(Composition.of(2), Composition.of(1, 1, 1))


def test_digon_and_blamgon_values():
    # the digon of colors j, k is the blamgon of (j, k): [j + k choose k]
    assert f_factor(2, Composition.of(1, 1)) == quantum_binomial(2, 1) == quantum_int(2)
    assert f_factor(3, Composition.of(2, 1)) == quantum_binomial(3, 1)
    assert f_factor(3, Composition.of(3)) == Laurent.one()
    assert f_factor(3, Composition.of(2, 1)) == quantum_int(3)


# -- frayed projectors ------------------------------------------------------------

def test_finite_projector_on_full_block_splits():
    # lambda = (n): all Koszul elements die in 1_{(n)}; series is
    # prod_k (1 + t q^{-2k}) times the identity series
    lam = Composition.of(2)
    proj = projector(lam, "finite")
    w = Window((0, 0), (-8, 8), (0, 2))
    H = homology_truncated(proj.complex, w)
    ident = build_identity(lam)
    for d in range(0, 9, 2):
        assert H.coeffs.get((0, d, 0), 0) == ident.ring.dim(d)
    # t-degree-1 piece: theta_1 (q^{-2}) and theta_2 (q^{-4}) copies
    for d in range(-4, 6):
        want = (ident.ring.dim(d + 2) if d + 2 >= 0 else 0) + (
            ident.ring.dim(d + 4) if d + 4 >= 0 else 0
        )
        assert H.coeffs.get((0, d, 1), 0) == want


def test_finite_projector_poincare_vs_reduced():
    # the (1+q^{-2}t)-relation: the engine's thin finite projector has the
    # Poincare series of (1 + q^{-2}t) x a reduced Koszul complex
    lam = Composition.thin(2)
    proj = projector(lam, "finite")
    w = Window((0, 0), (-6, 6), (0, 2))
    H = homology_truncated(proj.complex, w)
    W = build_W(lam)
    # theta-degree 0 part of homology at t=0: ker of the Koszul pair on W
    # sanity: series at t=0 is a subquotient of W's series
    for d in range(0, 7, 2):
        assert H.coeffs.get((0, d, 0), 0) <= W.ring.dim(d)


@pytest.mark.parametrize("parts", [(1,), (1, 1), (2,), (1, 1, 1), (2, 1), (1, 2), (3,)])
@pytest.mark.parametrize("variant", ["finite", "def_finite", "infinite", "def_infinite"])
def test_projector_mc(parts, variant):
    lam = Composition(parts)
    proj = projector(lam, variant, cap=2, check=True)
    assert proj.complex.mc_check().ok


def test_deformed_finite_curvature_shape():
    lam = Composition.of(1)
    proj = projector(lam, "def_finite", cap=2)
    mono = PMono((("y1_1", 1),), (), ())
    assert mono in proj.complex.curvature
    diff = Poly.gen(e_gen(1, 1)) - Poly.gen(e_gen(1, 1, BOTTOM))
    assert proj.complex.curvature[mono] == diff


def test_infinite_projector_udegree_zero_is_finite():
    lam = Composition.of(1, 1)
    fin = projector(lam, "finite")
    inf = projector(lam, "infinite", cap=2)
    for mono, mat in fin.complex.terms.items():
        assert inf.complex.terms.get(mono, {}).keys() == mat.keys()


def test_infinite_projector_single_block_kronecker():
    # lambda = (2): gamma = sum theta-dual_k u_k with unit coefficients
    proj = projector(Composition.of(2), "infinite", cap=2)
    m1 = PMono((("u1", 1),), (), ("th1_1",))
    m2 = PMono((("u2", 1),), (), ("th1_2",))
    assert m1 in proj.complex.terms and m2 in proj.complex.terms
    assert proj.complex.terms[m1][(0, 0)].plain_part().constant_value() == -1
    # no cross terms u_1 theta-dual_2
    cross = PMono((("u1", 1),), (), ("th1_2",))
    assert cross not in proj.complex.terms


def test_infinite_projector_base_case_contracts():
    """P of (1): the unrolled ladder has the homology of 1_{(1)} within the
    cap-safe window."""
    for cap in (2, 3, 4):
        proj = projector(Composition.of(1), "infinite", cap=cap)
        w = Window((0, 0), (-4, 8), (0, 2 * cap - 1))
        H = homology_truncated(proj.complex, w)
        ident = build_identity(Composition.of(1))
        expected = {
            (0, d, 0): Fraction(ident.ring.dim(d)) for d in range(0, 9, 2)
            if ident.ring.dim(d)
        }
        assert H.coeffs == expected, (cap, H.coeffs)


def test_deformed_infinite_y_zero_recovers_infinite():
    lam = Composition.of(1, 1)
    dinf = projector(lam, "def_infinite", cap=2)
    inf = projector(lam, "infinite", cap=2)
    for mono, mat in inf.complex.terms.items():
        assert mono in dinf.complex.terms
        for ij, e in mat.items():
            assert e.plain_part() == dinf.complex.terms[mono][ij].plain_part()


def _sha256(x) -> str:
    """sha256 of x's JSON as the builder writes it, keys sorted."""
    return hashlib.sha256(json.dumps(x.to_json(), sort_keys=True).encode()).hexdigest()


# sha256 of each complex's sorted JSON: a change to how the builders are
# written must not change one byte of what they build.  Each case's id is a
# fixed name: it ends in the digest the case had while side-1 generators were
# written after the side-0 ones (("e", 1, j, k) as ("e", 0, m + j, k)), so a
# re-pin changes a digest and renames no test.
PROJECTOR_SHA256 = [
    pytest.param("finite", (1,), "6cd3830a92808b5a638a80f40317ab4bcc321ca9856bd2acbee5b64cce812b4a",
                 id="finite-parts0-3341b98835ba64950af7faa02f5f808723c43529d852e7eddd0edb0832d3054e"),
    pytest.param("finite", (1, 1), "2540aabfc9ac2a567f076f818da29fad5e5bfafbbfcdce770d9ea4fe0b69482e",
                 id="finite-parts1-6302b1a53346c44be385a107780b257c989c53ff12647e161c7e3397937e5082"),
    pytest.param("finite", (2, 1), "81199e09a291d79e420405f662d618f32529c4c201b0eae0400a7b87d98e49d9",
                 id="finite-parts2-5dbe1ef86b29ee1ae22fb8062a92fa36d8f1c1af117f448ed754de398a449c63"),
    pytest.param("finite", (1, 1, 1), "58316adf4de6a6a3c7b619cadfd71682e2060b21188532568b537b51cf7baf99",
                 id="finite-parts3-50d66ca281be7faa0aabce69708330e1a3a1c94d636206fc6b8dded4a66ae717"),
    pytest.param("finite", (3,), "001ae5fa589c00e89197249c2f40f93eca2924768d1e5ad566ea997c51cb07d9",
                 id="finite-parts4-8849170d16c57279e56eddc962ac499bd6778f509bd76c46eaaf00cad32710bb"),
    pytest.param("def_finite", (1,), "3ba41e32e8ee72ccdb597c80d35c190bdb8b2d705ea5c70e522917d0bb8fff0e",
                 id="def_finite-parts5-35f3fcb765f7f225df9546351dcc7b65779c5a7542099f5e51204fffcaf02e26"),
    pytest.param("def_finite", (1, 1), "d200642ed6dd9c3e4ab6ea245299354744bb07badd295ee0726de2b77aa19924",
                 id="def_finite-parts6-7c76f2b8451069aad03e17639bc34c2a9701e178befd834685f31710754829df"),
    pytest.param("def_finite", (2, 1), "2bb6ac3c427a0d1b1a1680583272520fbad291a12eeb1a9b3778c01cf5b3b36c",
                 id="def_finite-parts7-521b3d0937a0dd64afce1778cfa9ae61c9f72ce6cf3bb40114f4a19970744043"),
    pytest.param("def_finite", (1, 1, 1), "ece84e89cbd5985243d096c2b1251c4c1efb4781001cbebd3451118a70362844",
                 id="def_finite-parts8-01de4a7b60561a45b002f516ea13febbf5cebe565404bf6182e988cf42a32c9a"),
    pytest.param("def_finite", (3,), "27032a07a3834dcdaa91fe91af5f6b5c2a3d77e46d9ed73d047d07d752c4ebfc",
                 id="def_finite-parts9-8cccd934710b1b19c7d98f7b6587ff4130fc2ffd42277509521440c2c0843d34"),
    pytest.param("infinite", (1,), "11141c6177b0cef5c51729779ea36da478846bf6db24f5bdc98050ec811edefc",
                 id="infinite-parts10-1a48d8f278297608cf4e487a2d3501b77ba7d0cd71ed6340d8cd61b1268d05ab"),
    pytest.param("infinite", (1, 1), "766499f1b5d8075880aeac666a7ceb7eabd9281587f52b3b5e26a2d5bffc4617",
                 id="infinite-parts11-3fc6fcc3a5739bc6e29cc3f05a775cc50cb1632eb42e4bffe309ef5924a2c51f"),
    pytest.param("infinite", (2, 1), "d76129a99e7769f6f2b224ca73aa17806dc3ab21c427b80f5ea18930a980387a",
                 id="infinite-parts12-5162c78d448d7709cf7cf33f6213c754f175a91f841e4216ccbe18ce2fd4d4a5"),
    pytest.param("infinite", (1, 1, 1), "1a8c4ce89fe9b580e99f6cb4299b9699b9c99b08eb8062ea05e03b748482c7d4",
                 id="infinite-parts13-775689d257c8b6e1f41fc9b7cdc119ed9bcc7424f9fde4d47aca03402347558e"),
    pytest.param("infinite", (3,), "db70675e87f4a059a64553695424a427ec76f1dd751ad17d000a10e9b6d5ff01",
                 id="infinite-parts14-b849ea9716f61be386d44984af55093a36c990db66f4f5c9ae7874655d570f6a"),
    pytest.param("def_infinite", (1,), "ac5febbbe23eafadcf686005611c51045b67d286bc0e8e983db20c7557e5665b",
                 id="def_infinite-parts15-6cd625df1d466be68298315ff3fbadf2ec2dfbfdc751dd7e251f725d34d863ee"),
    pytest.param("def_infinite", (1, 1), "d94f961b51d42cd111b320389b4b21c016959173034149799b61712f347c6ea1",
                 id="def_infinite-parts16-e0d05c5630d5d708403c72ddcd64f7b3437bdd4148bdf562ae9dc38e7b51f885"),
    pytest.param("def_infinite", (2, 1), "f7342e6c4e94e3c4a41264e9aba3541e14ac53837e1f925b5c463464f3953e76",
                 id="def_infinite-parts17-dc4ed3f0bbd0f30e5539434fb2bccbba07cd601a76e7aae5e15d1e687fec5435"),
    pytest.param("def_infinite", (1, 1, 1), "7b690539c9cd9129557568000618d069cf4b67cdca1f55df38595a670a0ee13c",
                 id="def_infinite-parts18-db991b5bee452aab664f9e15e9bf581849559ce087128188fd140ee1e8080234"),
    pytest.param("def_infinite", (3,), "a19874ddf670ec700487038a2a8137f028dce3713d4d6454ee536107e679edcf",
                 id="def_infinite-parts19-bbba8d4876334661d1220a8417b94f569074c2ca8d71a45d6461b781947375ef"),
]

CN_SHA256 = [
    pytest.param(1, "plain", "87ecd4c7208ef860bd9a821f4511ad814079a94a0fa219a0360f67e20035a24d",
                 id="1-plain-6b072ae1297bd45a0248c78f097b11a18e3e9069dc8626b38c80bf1e266f06a7"),
    pytest.param(1, "y", "8bbf3349c5629bfa8f5fbec0347b6425b1dae077a7119414f1a7f7941a69f496",
                 id="1-y-011baecf45f3f5e8321e18db41262c8ccc4b4119e1123609e202df79b1a5d97f"),
    pytest.param(1, "u", "111c91b27bb10a406ed9e6593f59697460b700aed9e68716cb23538c91dac30b",
                 id="1-u-c21d9d75cf9caf1b3867651fff3a2da3d6aed16cb305aa98372f4f02492fa946"),
    pytest.param(1, "yu", "7c98091d12e4fdae30703d18fef9c335105bc1d5a99275a6d8772cf1b143570f",
                 id="1-yu-fc4ae5b078b9767056f4e5c8ae7e1d4489f3c519b40eea3332e3c84e23b95019"),
    pytest.param(2, "plain", "81a3ee3381944a4fdcb6695ba302ae8306c5bdfb4f1033e1b8edb15fe73f6743",
                 id="2-plain-9cf6ce96d92eb561993e5255793de8b82bb56813467c00d6af1c2a499ad141db"),
    pytest.param(2, "y", "daf0fe163bf2584292a41863c89f07e135d2c0ffd31e828a69c73414fdcd5633",
                 id="2-y-c770f7f82664e96325d5c464e6dd693e172bf75dbcc38a9e631e971fb5139849"),
    pytest.param(2, "u", "d6a59f02caf8dca1ea2a0566a7ccdf3918349d2b0f52962e106dcfc80d83f29e",
                 id="2-u-329b5267e18b713be06a66aff026c6ea2ef87b6e8f681ae1f74d105727188a1b"),
    pytest.param(2, "yu", "254f505f258ada26de3a053ce96d4f0be42e429f65dcca9421ce66e48fd01c11",
                 id="2-yu-41252e1090b35a06192b9e958d0849bed9d5ce9708a27bdd3e6d2e19cbbf77dc"),
    pytest.param(3, "plain", "c1a460edcd0196f1fe3a8192cc3ff12d875542efc427dd98b29b7b0805cb2f92",
                 id="3-plain-06b1ae7112f841eb4a98c800097f0398c239f2eac3c501e27310433e058369fe"),
    pytest.param(3, "y", "1eb186e883bdb86d979e23f128f6679842a82aa9bce47df9a4f1da8cbf7adb94",
                 id="3-y-2fa993b6d8366a64d3e57cc581417a990cff8f477c6a8f256ee1ad816f7a0448"),
    pytest.param(3, "u", "a316eb224471644862fbfec65f4ab49a50b16b9cf9e489dd25efc6639c655aca",
                 id="3-u-abe390ce3584229e3486f4c1b4cf3bc52bb698444b000d2a5d8a03495d02f2da"),
    pytest.param(3, "yu", "88d504ea491be6896b3112652a57f3f363100d4a40134d4d5abd6286b66b458f",
                 id="3-yu-0a3fc90203ec4b608c7c7b31ac82f1595644008a4488d63a92d2c2605c37f092"),
]


@pytest.mark.parametrize("variant, parts, digest", PROJECTOR_SHA256)
def test_projector_serialization_pinned(variant, parts, digest):
    assert _sha256(projector(Composition(parts), variant, cap=3)) == digest


@pytest.mark.parametrize("n, variant, digest", CN_SHA256)
def test_cn_serialization_pinned(n, variant, digest):
    assert _sha256(cn_family(n, variant, cap=2)) == digest


@pytest.mark.parametrize("parts", [(1, 1), (2, 1)])
def test_def_infinite_check_catches_a_doubled_a_ijk(parts, monkeypatch):
    # one a_ijk doubled adds a_ijk (e_k(X_j) - e_k(X'_j)) u_i to the square,
    # which is not zero in W_lambda once lambda has two blocks
    a_coefficients = ssbim._a_coefficients

    def doubled(lam):
        fam = dict(a_coefficients(lam))
        key = min(k for k, p in fam.items() if not p.is_zero())
        fam[key] = 2 * fam[key]
        return fam

    lam = Composition(parts)
    projector(lam, "def_infinite", cap=2, check=True)
    monkeypatch.setattr(ssbim, "_a_coefficients", doubled)
    with pytest.raises(ValueError, match="Maurer-Cartan"):
        projector(lam, "def_infinite", cap=2, check=True)


@pytest.mark.parametrize("parts", [(1,), (2,), (3,), (1, 1)])
def test_infinite_check_catches_a_doubled_a_family(parts, monkeypatch):
    # with every a_ijk doubled, sum_jk a_ijk (e_k(X_j) - e_k(X'_j)) still
    # vanishes in W_lambda, so Maurer-Cartan passes; the identity before the
    # quotient does not
    a_coefficients = ssbim._a_coefficients
    monkeypatch.setattr(ssbim, "_a_coefficients",
                        lambda lam: {ijk: 2 * p for ijk, p in a_coefficients(lam).items()})
    lam = Composition(parts)
    for variant in ("infinite", "def_infinite"):
        with pytest.raises(ValueError, match="a-family"):
            projector(lam, variant, cap=2, check=True)
        assert projector(lam, variant, cap=2, check=False).complex.mc_check().ok
    records = criteria.maurer_cartan(max_n=1, cap=2)
    assert {r["name"]: r["status"] for r in records if "infinite" in r["name"]} == {
        "mc infinite lambda=(1,)": "fail", "mc def_infinite lambda=(1,)": "fail"}


def test_def_infinite_check_covers_the_y_legs():
    # a y-curvature that differs from its Koszul leg fails the one check
    cx = projector(Composition.of(1, 1), "def_infinite", cap=2, check=False).complex
    mono = PMono((("y1_1", 1),), (), ())
    assert cx.mc_check().ok
    cx.curvature[mono] = -1 * cx.curvature[mono]
    assert not cx.mc_check().ok


def test_projector_json():
    proj = projector(Composition.of(1, 1), "finite")
    data = proj.to_json()
    assert data["variant"] == "finite"
    assert data["lambda"] == [1, 1]
    assert "connection" in data


@pytest.mark.parametrize("parts", [p for N in range(1, 5) for p in compositions(N)])
def test_block_differences_are_operators_relations_and_legs(parts):
    """xi_jk = e_k(X_j) - e_k(X'_j) is one list, in one order: the
    Hochschild operators, the relations of 1_lambda and the Koszul legs of
    the finite projector."""
    lam = Composition(parts)
    xis = [xi for _, _, xi in block_differences(lam)]
    assert [xi for xi, _ in hh_operators(lam)] == xis
    assert build_identity(lam).ring.spec.relations == xis
    cx = projector(lam, "finite").complex
    legs = [cx.terms[PMono((), (th,), ())][(0, 0)].plain_part() for th in cx.params.odd_names()]
    assert legs == xis
    assert [(j, k) for j, k, _ in block_differences(lam)] == [
        (j, k) for j, size in enumerate(parts, start=1) for k in range(1, size + 1)]


# -- the C_n family ----------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("variant", ["plain", "y", "u", "yu"])
def test_cn_mc(n, variant):
    cx = cn_family(n, variant, cap=2)
    assert cx.mc_check().ok


def test_cn_plain_shape():
    cx = cn_family(1, "plain")
    assert [o.degree for o in cx.objects] == [
        MultiDegree(0, 1, 0),
        MultiDegree(0, -1, 1),
        MultiDegree(0, -2, 2),
    ]
    # forward x_2 - x'_2 then opaque unzip
    assert cx.terms[PM_ONE][(1, 0)].is_plain()
    assert not cx.terms[PM_ONE][(2, 1)].is_plain()


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("variant", ["plain", "y", "u", "yu"])
def test_cn_unzip_degree_comes_from_the_rings(n, variant):
    """The unzip arrow W_{(n,1)} -> 1_{(n,1)} takes its degree q^n from the
    two rings' qshifts; the same arrow carrying x_{n+1} is inhomogeneous."""
    cx = cn_family(n, variant, cap=2)
    assert cx.objects[1].ring.qshift - cx.objects[2].ring.qshift == n
    cx.check_homogeneous()
    terms = {mono: dict(mat) for mono, mat in cx.terms.items()}
    terms[PM_ONE][(2, 1)] = Entry.opaque("unzip", Poly.gen(e_gen(2, 1, TOP)))
    with pytest.raises(ValueError, match="not t"):
        cx.derived(terms=terms).check_homogeneous()


def test_cn_u_backward_maps():
    cx = cn_family(2, "u", cap=2)
    gs = g_polys(2)
    for i in (1, 2):
        mono = PMono(((f"u{i}", 1),), (), ())
        assert cx.terms[mono][(0, 1)].plain_part() == -1 * gs[i - 1]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("variant", ["plain", "y", "u", "yu"])
def test_cone_iota_eliminate(n, variant):
    red = cone_iota_eliminate(n, variant, cap=2)
    assert len(red.objects) == 2


def test_cone_iota_eliminate_raises_on_a_bad_sdr(monkeypatch):
    monkeypatch.setattr(SdrData, "verify", lambda self: CheckReport(False, "forced failure"))
    with pytest.raises(ValueError, match="bad SDR: forced failure"):
        cone_iota_eliminate(1, "plain", cap=2)


def test_cone_iota_composite_is_curvature():
    """backward o forward on the left object reduces to the declared
    curvature in the quotient ring (100-sample vanishing-locus check)."""
    from fraylab.homalg import Entry

    for n in (1, 2, 3):
        cx = cone_iota_eliminate(n, "u", cap=2)
        sq = cx.compose_terms(cx.terms, cx.terms)
        for mono, fv in cx.curvature.items():
            got = sq.get(mono, {}).get((0, 0))
            assert got is not None
            diff = got + (-Entry.plain(fv))
            ring = cx.objects[0].ring
            assert ring.reduces_to_zero(diff.plain_part())
            for pt in ring.spec.sampler(100, 0):
                assert eval_at_point(diff.plain_part(), pt, *ring.spec.alphabets) == 0


# -- ladder ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_ladder_collapse(n):
    red, tau = ladder_collapse(n, cap=2)
    assert len(red.objects) == 2
    assert len(tau.objects) == 1
    assert tau.mc_check().ok


@pytest.mark.parametrize("n", [1, 2])
def test_ladder_collapse_keeps_cap_and_rules(n):
    red, _ = ladder_collapse(n, cap=2)
    assert red.cap == 2
    assert red.opaque_rules == UNZIP_RULES


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ladder_cone_is_homogeneous(n, monkeypatch):
    """The cone that the ladder collapse eliminates in is homogeneous: its
    opaque 'unit' arrow 1_{(n,1)} -> W_{(n,1)} takes degree q^{-n} from the
    rings."""
    cones = []
    eliminate = ssbim.gaussian_eliminate
    monkeypatch.setattr(ssbim, "gaussian_eliminate",
                        lambda C, entry: (cones.append(C), eliminate(C, entry))[1])
    ladder_collapse(n, cap=2)
    (C,) = cones
    assert any(e.parts.keys() == {"unit"} for mat in C.terms.values() for e in mat.values())
    C.check_homogeneous()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_basis_change(n):
    rep = basis_change_check(n, cap=2)
    assert rep.ok, rep.details


def test_extended_family_conventions():
    fam = extended_thin_family(2)
    assert fam[(3, 1)].is_zero() and fam[(3, 2)].is_zero()
    assert fam[(1, 3)] == Poly.one()  # g_1 = 1
