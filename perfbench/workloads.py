"""The four smallrank workloads: request lists, calls and output checks.

Each workload turns a seed into a fixed list of requests (the same seed
always gives the same list), runs one request through the package, checks
the output with arithmetic of its own, and reduces the output to a
canonical string for the digest.  Checks never trust the code being timed:
where they call the package, they call a different code path than the
request did.

Why each workload, and what its seed draws (also in README.md):

* ``classgroup`` -- ``class_group(D)`` for D < 0, |D| <= 20000.  Almost all
  time is in ``quadforms.reduce``/``compose``; ``exactlattice`` is reached
  only through ``xgcd``.  It is the control for lattice and ``Fraction``
  changes.  The seed picks one D from each of 480 equal strata of the
  discriminants ordered by class number, so D stays uniform while the mix
  of cheap and costly requests stays the same from seed to seed.
* ``semigroup`` -- ``class_semigroup(D)`` for every non-fundamental D with
  |D| < 1500 (292 values: ``Fraction`` HNF, ``mat_inv``/``mat_det`` in each
  ``QuadIdeal`` and the linear ``elements.index`` scan).  The whole
  population runs in every pass, because any sample of it leaves the
  0.3-0.7 s tail to chance; the seed sets the order and which third is
  traced.
* ``quartic`` -- random pairs with coefficients in [-3, 3]: 20 resolvent
  requests and 17 ``is_maximal_at_p`` at p = 2, 3, 5, 7 in the ratio
  8 : 6 : 2 : 1 in every block of 37, every other maximality request of a
  prime with A scaled by p (never maximal).  The seed draws the pairs.  A
  maximal ring runs the full ~p^4 subspace enumeration; at p = 3, 5 and 7
  the unscaled pairs are drawn with p^2 not dividing the discriminant, so
  that all of them are maximal and each pass holds the same number of
  those 0.1-2.6 s requests.  At p = 2 the unscaled pairs stay unrestricted.
  With six p = 3 requests per block, the p90 falls inside the cluster of
  maximal p = 3 rings instead of on its edge.  Resolvents are a
  little over half, so the median lies inside their cluster, not on the
  edge of it.
* ``cli`` -- ``cli.main(argv)`` with ``--json`` on all 17 subcommands with
  small inputs: each block of 18 holds the 15 fast ones, one of the slow
  ``semigroup`` and ``maximal`` by turns, and two out-of-domain requests
  (11.1 %), which must exit 1 or 2 without a traceback.  JSON inputs are
  files written during set-up.  The only workload that reaches ``cubes``,
  ``cubicrings`` and ``padic``.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from math import gcd

import smallrank
from smallrank import cli, quadforms, quadrings, quarticrings

# The defect recorded in the project's ROADMAP: compose() divides by zero
# on an indefinite form with a zero coefficient, and the CLI prints a
# traceback.  Indefinite compose requests run as separate probes, outside
# the timed list and its counts, so that every request of a workload
# succeeds while the defect still shows (run.py, cli.known_defect_failures).
KNOWN_DEFECT_ARGV = ("compose", "--json", "--", "9", "-1", "3", "0", "0", "-3", "2")
DEFECT_PROBES = 20


# ------------------------------------------------------------ arithmetic
# Independent of the package: enumeration, small integer linear algebra.


def _is_disc(d):
    return d % 4 in (0, 1)


def _content(f):
    return gcd(gcd(abs(f[0]), abs(f[1])), abs(f[2]))


def _is_reduced(f):
    a, b, c = f
    if not abs(b) <= a <= c:
        return False
    return b >= 0 or (abs(b) != a and a != c)


def reduced_form_counts(limit):
    """(primitive, all) counts of reduced forms of every D in [-limit, -3].

    Walks the reduced triples (a, b, c) with 4ac - b^2 <= limit directly.
    """
    prim, every = {}, {}
    a = 1
    while 3 * a * a <= limit:
        for b in range(-a + 1, a + 1):
            c = a + 1 if b < 0 else a  # (a, b, a) with b < 0 is not reduced
            while 4 * a * c - b * b <= limit:
                d = b * b - 4 * a * c
                every[d] = every.get(d, 0) + 1
                if gcd(gcd(a, abs(b)), c) == 1:
                    prim[d] = prim.get(d, 0) + 1
                c += 1
        a += 1
    return prim, every


def reduced_forms(d):
    """All reduced forms of one discriminant d < 0, in sorted order."""
    out = []
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a) == 0:
                f = (a, b, num // (4 * a))
                if _is_reduced(f):
                    out.append(f)
        a += 1
    return sorted(out)


def _non_fundamental(d):
    f = 2
    while f * f <= -d:
        if d % (f * f) == 0 and _is_disc(d // (f * f)):
            return True
        f += 1
    return False


def _principal(d):
    return (1, 0, -d // 4) if d % 4 == 0 else (1, 1, (1 - d) // 4)


def _minors(pair):
    a, b = pair
    return [a[x] * b[y] - a[y] * b[x] for x in range(6) for y in range(x + 1, 6)]


def _pair_content(pair):
    g = 0
    for v in _minors(pair):
        g = gcd(g, abs(v))
    return g


def _sigma(n):
    return sum(k for k in range(1, n + 1) if n % k == 0)


def _resolvent_disc(pair):
    """Discriminant of the cubic 4 det(Ax + By), i.e. of the quartic ring."""
    a, b = pair
    m = [(a[n], b[n]) for n in range(6)]  # slots 11, 22, 33, 12, 13, 23

    def tri(u, v, w):
        # product of three linear forms (x, y coefficients), by power of y
        out = [0, 0, 0, 0]
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    out[i + j + k] += u[i] * v[j] * w[k]
        return out

    # terms[k] is the coefficient of x^(3-k) y^k
    terms = [0, 0, 0, 0]
    for scale, (u, v, w) in (
        (4, (m[0], m[1], m[2])),
        (1, (m[3], m[4], m[5])),
        (-1, (m[0], m[5], m[5])),
        (-1, (m[1], m[4], m[4])),
        (-1, (m[2], m[3], m[3])),
    ):
        for k, t in enumerate(tri(u, v, w)):
            terms[k] += scale * t
    p, q, r, s = terms
    return 18 * p * q * r * s - 4 * q ** 3 * s + q * q * r * r - 4 * p * r ** 3 - 27 * p * p * s * s


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(n)
        if m[0][j]
    )


def _adjugate(m):
    """adj(M) with M * adj(M) = det(M) * I, for a small integer matrix."""
    n = len(m)
    cof = [
        [
            (-1) ** (i + j) * _det([row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return [[cof[j][i] for j in range(n)] for i in range(n)]


def _quartic_mul(table, x, y):
    """Product in a quartic ring from its structure constants c[(i, j, k)]."""
    out = [x[0] * y[0], x[0] * y[1] + x[1] * y[0], x[0] * y[2] + x[2] * y[0], x[0] * y[3] + x[3] * y[0]]
    for i in range(1, 4):
        for j in range(1, 4):
            t = x[i] * y[j]
            if t:
                key = (i, j) if i <= j else (j, i)
                for k in range(4):
                    out[k] += t * table[key + (k,)]
    return out


def check_witness(table, witness, p):
    """None if the rows span a ring containing Q with index p^k, k >= 1."""
    den = 1
    for row in witness:
        for e in row:
            den = den * Fraction(e).denominator // gcd(den, Fraction(e).denominator)
    m = [[int(Fraction(e) * den) for e in row] for row in witness]
    det = _det(m)
    if det == 0:
        return "witness rows are dependent"
    adj = _adjugate(m)

    def member(v, scale):
        # v / scale lies in the lattice of the rows m / den
        x = [sum(v[i] * adj[i][j] for i in range(4)) * den for j in range(4)]
        return all(t % (scale * det) == 0 for t in x)

    for k in range(4):
        e = [int(k == j) for j in range(4)]
        if not member(e, 1):
            return "witness does not contain Q"
    for i in range(4):
        for j in range(i, 4):
            if not member(_quartic_mul(table, m[i], m[j]), den * den):
                return "witness is not closed under multiplication"
    index = Fraction(den ** 4, abs(det))
    if index.denominator != 1 or index == 1:
        return "witness index %s is not a positive power of p" % index
    n = index.numerator
    while n % p == 0:
        n //= p
    if n != 1:
        return "witness index %s is not a power of %d" % (index, p)
    return None


# ------------------------------------------------------------- canonical


def _plain(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (tuple, list)):
        return [_plain(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return obj
    raise TypeError("no canonical form for %r" % type(obj))


def digest_of(obj):
    text = json.dumps(_plain(obj), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _interleave(items, stride):
    """Every stride-th item first, so a prefix is a systematic sample."""
    return [items[i] for i in sorted(range(len(items)), key=lambda i: (i % stride, i))]


# ------------------------------------------------------------- workloads


class ClassGroup:
    name = "classgroup"
    limit = 20000
    strata = 480
    trace_requests = 48  # every tenth stratum; about 2.3M spans
    warmup = "smallrank.quadforms.class_group(-1999)"

    def generate(self, seed, workdir):
        rng = random.Random("classgroup:%d" % seed)
        self.prim, _ = reduced_form_counts(self.limit)
        pop = sorted(self.prim, key=lambda d: (self.prim[d], -d))
        n = len(pop)
        chosen = [
            pop[rng.randrange(k * n // self.strata, (k + 1) * n // self.strata)]
            for k in range(self.strata)
        ]
        return _interleave(chosen, self.strata // self.trace_requests)

    def execute(self, d):
        return quadforms.class_group(d)

    def canonical(self, d, out):
        return out

    def check(self, d, out):
        elements, table, structure = out
        h = len(elements)
        if h != self.prim[d]:
            return "class number %d, expected %d" % (h, self.prim[d])
        if len(set(elements)) != h or any(
            not _is_reduced(f) or _content(f) != 1 or f[1] * f[1] - 4 * f[0] * f[2] != d
            for f in elements
        ):
            return "elements are not the distinct primitive reduced forms"
        try:
            e = elements.index(_principal(d))
        except ValueError:
            return "principal form missing"
        full = list(range(h))
        for i in range(h):
            if table[e][i] != i or sorted(table[i]) != full:
                return "row %d is not a permutation fixed by the identity" % i
            for j in range(i):
                if table[i][j] != table[j][i]:
                    return "table is not commutative"
        rng = random.Random(d)
        for _ in range(3 * h):
            i, j, k = rng.randrange(h), rng.randrange(h), rng.randrange(h)
            if table[table[i][j]][k] != table[i][table[j][k]]:
                return "table is not associative"
        prod = 1
        for i, t in enumerate(structure):
            prod *= t
            if t < 2 or (i and t % structure[i - 1]):
                return "structure %r is not an invariant factor chain" % (structure,)
        if prod != h:
            return "structure %r does not multiply to h = %d" % (structure, h)
        return None


class SemiGroup:
    name = "semigroup"
    limit = 1499
    trace_stride = 3
    warmup = "smallrank.quadrings.class_semigroup(-100)"

    def generate(self, seed, workdir):
        rng = random.Random("semigroup:%d" % seed)
        _, self.every = reduced_form_counts(self.limit)
        pop = sorted(
            (d for d in self.every if _non_fundamental(d)),
            key=lambda d: (self.every[d], -d),
        )
        # one D from each run of three in form-count order is traced
        strata = [pop[i:i + self.trace_stride] for i in range(0, len(pop), self.trace_stride)]
        traced, rest = [], []
        for s in strata:
            s = list(s)
            traced.append(s.pop(rng.randrange(len(s))))
            rest.extend(s)
        rng.shuffle(traced)
        rng.shuffle(rest)
        self.trace_requests = len(traced)
        return traced + rest

    def execute(self, d):
        return quadrings.class_semigroup(d)

    def canonical(self, d, out):
        return out

    def check(self, d, out):
        elements, table = out
        h = len(elements)
        if h != self.every[d] or len(set(elements)) != h or any(
            not _is_reduced(f) or f[1] * f[1] - 4 * f[0] * f[2] != d for f in elements
        ):
            return "elements are not the %d reduced forms" % self.every[d]
        if any(len(row) != h or any(not 0 <= t < h for t in row) for row in table):
            return "table is not an h x h table of indices"
        # the form <-> ideal dictionary agrees with Gauss composition
        group, gtable, _ = quadforms.class_group(d)
        prim = [i for i, f in enumerate(elements) if _content(f) == 1]
        if sorted(elements[i] for i in prim) != sorted(group):
            return "primitive classes differ from class_group"
        gidx = {f: i for i, f in enumerate(group)}
        for i in prim:
            for j in prim:
                want = group[gtable[gidx[elements[i]]][gidx[elements[j]]]]
                if elements[table[i][j]] != want:
                    return "product of %r and %r differs from compose" % (elements[i], elements[j])
        return None


Z4_PAIR = ((0, 0, 0, 1, 0, -1), (0, 0, 0, 0, 1, -1))


class Quartic:
    name = "quartic"
    block = ["resolvent"] * 20 + [2] * 8 + [3] * 6 + [5] * 2 + [7]
    blocks = 6
    trace_requests = 37  # the first block
    warmup = (
        "r = smallrank.quarticrings.ring_from_pair(%r)\n"
        "smallrank.quarticrings.is_maximal_at_p(r, 2)\n"
        "smallrank.quarticrings.pair_from_ring(r)" % (Z4_PAIR,)
    )

    def generate(self, seed, workdir):
        rng = random.Random("quartic:%d" % seed)
        seen = {}
        requests = []
        for _ in range(self.blocks):
            kinds = list(self.block)
            rng.shuffle(kinds)
            for kind in kinds:
                while True:
                    pair = tuple(tuple(rng.randint(-3, 3) for _ in range(6)) for _ in range(2))
                    if kind != "resolvent":
                        scaled = seen.get(kind, 0) % 2 == 1
                        if scaled:
                            pair = (tuple(kind * v for v in pair[0]), pair[1])
                    if not any(_minors(pair)):
                        continue
                    if kind == "resolvent":
                        requests.append(("resolvent", pair))
                        break
                    disc = _resolvent_disc(pair)
                    # unscaled rings at p >= 3 are kept maximal (p^2 does not
                    # divide disc), so every pass runs the same number of full
                    # 0.1-2.6 s enumerations instead of a seed-dependent one
                    if disc and (scaled or kind < 3 or disc % (kind * kind)):
                        seen[kind] = seen.get(kind, 0) + 1
                        requests.append(("maximal", pair, kind, scaled, disc))
                        break
        return requests

    def execute(self, req):
        ring = quarticrings.ring_from_pair(req[1])
        if req[0] == "resolvent":
            resolvent, witness = quarticrings.pair_from_ring(ring)
            count = quarticrings.count_numerical_resolvents(ring)
            form = quarticrings.cubic_resolvent_form(req[1])
            return ring, resolvent, witness, count, form
        return (ring,) + tuple(quarticrings.is_maximal_at_p(ring, req[2]))

    def canonical(self, req, out):
        if req[0] == "resolvent":
            ring, resolvent, witness, count, form = out
            return [sorted(ring.c.items()), resolvent.lattice, resolvent.content, witness, count, form]
        # the witness basis may legitimately change; the checks cover it
        return [req[2], out[1]]

    def check(self, req, out):
        ring = out[0]
        if req[0] == "resolvent":
            _, resolvent, witness, count, form = out
            content = _pair_content(req[1])
            if resolvent.content != content:
                return "content %r, minors give %d" % (resolvent.content, content)
            if count != _sigma(content):
                return "count %r != sigma(%d)" % (count, content)
            if quarticrings.ring_from_pair(witness) != ring:
                return "witness pair does not rebuild the ring"
            return None
        _, pair, p, scaled, disc = req
        ok, witness = out[1], out[2]
        if ok:
            if scaled:
                return "A divisible by %d, yet reported maximal" % p
            return None if witness is None else "maximal with a witness"
        if disc % (p * p):
            return "p^2 does not divide disc %d, yet reported not maximal" % disc
        return check_witness(ring.c, witness, p)


def _write_json(workdir, name, payload):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(payload, str):
            fh.write(payload)
        else:
            json.dump(payload, fh)
    return path


def _strs(v):
    return [str(t) for t in v]


class Cli:
    name = "cli"
    blocks = 20
    trace_requests = 72  # the first four blocks
    warmup = (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    smallrank.cli.main(['classgroup', '--json', '--', '-23'])"
    )

    def generate(self, seed, workdir):
        rng = random.Random("cli:%d" % seed)
        self.rng, self.workdir, self.files = rng, workdir, 0
        os.makedirs(workdir, exist_ok=True)
        self.small_discs = [d for d in range(-3, -501, -1) if _is_disc(d)]
        self.small_nonfund = [d for d in range(-3, -101, -1) if _is_disc(d) and _non_fundamental(d)]
        valid = [getattr(self, "_v_" + name.replace("-", "_")) for name in SUBCOMMANDS]
        slow = [getattr(self, "_v_" + name) for name in SLOW_SUBCOMMANDS]
        bad = [getattr(self, "_x_" + kind) for kind in OUT_OF_DOMAIN]
        requests = []
        for b in range(self.blocks):
            block = [make() for make in valid] + [slow[b % len(slow)]()]
            block += [bad[(2 * b + k) % len(bad)]() for k in range(2)]
            rng.shuffle(block)
            requests.extend(block)
        self.defect_probes = [(KNOWN_DEFECT_ARGV, 1)]
        self.defect_probes += [self._x_compose_indefinite() for _ in range(DEFECT_PROBES - 1)]
        return requests

    def _file(self, payload):
        self.files += 1
        return _write_json(self.workdir, "in%04d.json" % self.files, payload)

    # -- inputs

    def _form(self):
        """A positive definite form with coefficients up to about 20."""
        r = self.rng
        a, b = r.randint(1, 20), r.randint(-20, 20)
        return (a, b, b * b // (4 * a) + r.randint(1, 20))

    def _cube(self, nondegenerate):
        while True:
            q = tuple(self.rng.randint(-4, 4) for _ in range(8))
            if not nondegenerate:
                return q
            a, b, c, d, e, f, g, h = q
            slices = (
                (b * c - a * d, b * g + c * f - a * h - d * e, f * g - e * h),
                (b * e - a * f, b * g + d * e - a * h - c * f, d * g - c * h),
                (c * e - a * g, c * f + d * e - a * h - b * g, d * f - b * h),
            )
            f1 = slices[0]
            if (0, 0, 0) not in slices and f1[1] ** 2 - 4 * f1[0] * f1[2] != 0:
                return q

    def _pair(self, need_disc=False):
        while True:
            pair = tuple(tuple(self.rng.randint(-3, 3) for _ in range(6)) for _ in range(2))
            if any(_minors(pair)) and (not need_disc or _resolvent_disc(pair)):
                return pair

    def _pair_file(self, pair):
        return self._file({"A": _strs(pair[0]), "B": _strs(pair[1])})

    # -- one valid request per subcommand: (argv, expected exit code)

    def _v_reduce(self):
        return ["reduce", "--json", "--"] + _strs(self._form()), 0

    def _v_compose(self):
        d = self.rng.choice(self.small_discs)
        forms = [f for f in reduced_forms(d) if _content(f) == 1]
        f, g = self.rng.choice(forms), self.rng.choice(forms)
        return ["compose", "--json", "--", str(d)] + _strs(f) + _strs(g), 0

    def _v_classgroup(self):
        return ["classgroup", "--json", "--", str(self.rng.choice(self.small_discs))], 0

    def _v_semigroup(self):
        return ["semigroup", "--json", "--", str(self.rng.choice(self.small_nonfund))], 0

    def _v_ideal_form(self):
        p, q, r = self._form()
        d = q * q - 4 * p * r
        t, u = (0, -d // 4) if d % 4 == 0 else (1, (1 - d) // 4)
        a = (t - q) // 2
        ideal = {
            "ring": {"t": str(t), "u": str(u)},
            "basis": [["1", "0"], [str(Fraction(-a, p)), str(Fraction(1, p))]],
        }
        return ["ideal-form", "--json", self._file(ideal)], 0

    def _v_form_ideal(self):
        return ["form-ideal", "--json", "--"] + _strs(self._form()), 0

    def _v_cube_forms(self):
        return ["cube-forms", "--json", "--"] + _strs(self._cube(False)), 0

    def _v_cube_ring(self):
        return ["cube-ring", "--json", "--"] + _strs(self._cube(True)), 0

    def _v_cube_triple(self):
        return ["cube-triple", "--json", "--"] + _strs(self._cube(True)), 0

    def _v_triple_cube(self):
        # set-up only: the triple of a random cube, as cube-triple prints it
        triple = smallrank.cubes.triple_from_cube(self._cube(True))
        payload = {
            "ring": {"t": str(triple.ring.t), "u": str(triple.ring.u)},
            "ideals": [[_strs(row) for row in i.basis] for i in triple.ideals],
        }
        return ["triple-cube", "--json", self._file(payload)], 0

    def _v_cubic_ring(self):
        return ["cubic-ring", "--json", "--"] + [str(self.rng.randint(-5, 5)) for _ in range(4)], 0

    def _v_cubic_form(self):
        ring = {k: str(self.rng.randint(-5, 5)) for k in "abef"}
        return ["cubic-form", "--json", self._file(ring)], 0

    def _v_quartic_ring(self):
        return ["quartic-ring", "--json", self._pair_file(self._pair())], 0

    def _v_resolvent(self):
        return ["resolvent", "--json", self._pair_file(self._pair())], 0

    def _v_maximal(self):
        return ["maximal", "--json", self._pair_file(self._pair(need_disc=True)), "2"], 0

    def _v_padic_count(self):
        r = self.rng
        n = r.randint(0, 4)
        idx = sorted(r.randint(0, n) for _ in range(3))
        return ["padic-count", "--json", str(r.choice((3, 5, 7))), str(n)] + _strs(idx), 0

    def _v_stella(self):
        r = self.rng
        n = r.randint(1, 3)
        return ["stella", "--json", "--", str(n)] + [str(r.randint(-n - 1, n + 1)) for _ in range(3)], 0

    # -- out of domain, each as cheap as the cheapest valid requests

    def _x_classgroup_positive(self):
        return ["classgroup", "--json", "--", str(self.rng.randint(1, 500))], 1

    def _x_reduce_negative(self):
        a, b, c = self._form()
        return ["reduce", "--json", "--", str(-a), str(b), str(-c)], 1

    def _x_compose_indefinite(self):
        r = self.rng

        def indefinite():
            while True:
                f = tuple(r.randint(-3, 3) for _ in range(3))
                if f[1] * f[1] - 4 * f[0] * f[2] > 0 and _content(f) == 1:
                    return f

        f = indefinite()
        d = f[1] * f[1] - 4 * f[0] * f[2]
        g = next(
            (g for g in (indefinite() for _ in range(50)) if g[1] * g[1] - 4 * g[0] * g[2] == d),
            f,
        )
        return ["compose", "--json", "--", str(d)] + _strs(f) + _strs(g), 1

    def _x_padic_even(self):
        return ["padic-count", "--json", "2", "2", "1", "1", "2"], 1

    def _x_semigroup_bad_residue(self):
        return ["semigroup", "--json", "--", str(-4 * self.rng.randint(1, 100) + 2)], 1

    def _x_maximal_composite(self):
        return ["maximal", "--json", self._pair_file(self._pair()), "4"], 1

    def _x_resolvent_malformed(self):
        return ["resolvent", "--json", self._file('{"A": ["1", ')], 2

    def _x_cubic_ring_word(self):
        return ["cubic-ring", "--json", "1", "x", "2", "3"], 2

    def _x_cube_triple_degenerate(self):
        return ["cube-triple", "--json", "--", "0", "0", "0", "0"] + [
            str(self.rng.randint(-4, 4)) for _ in range(4)
        ], 1

    def _x_resolvent_trivial(self):
        a = tuple(self.rng.randint(-3, 3) for _ in range(6))
        return ["resolvent", "--json", self._pair_file((a, a))], 1

    # -- run and check

    def execute(self, req):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(req[0]))
        except Exception as e:  # escaping main() is a traceback for a CLI user
            return None, out.getvalue(), err.getvalue(), type(e).__name__
        return code, out.getvalue(), err.getvalue(), None

    def canonical(self, req, out):
        return [out[0], out[1]]

    def check(self, req, out):
        argv, want = req
        code, stdout, stderr, escaped = out
        if escaped is not None:
            return "traceback: %s escaped %s" % (escaped, argv[0])
        if "Traceback" in stderr:
            return "traceback printed by %s" % argv[0]
        if code != want:
            return "%s exited %r, expected %d" % (argv[0], code, want)
        if want == 0:
            try:
                json.loads(stdout)
            except ValueError:
                return "%s printed invalid JSON" % argv[0]
        elif stdout:
            return "%s printed to stdout on a failure" % argv[0]
        return None


SUBCOMMANDS = (
    "reduce", "compose", "classgroup", "ideal-form", "form-ideal",
    "cube-forms", "cube-ring", "cube-triple", "triple-cube", "cubic-ring",
    "cubic-form", "quartic-ring", "resolvent", "padic-count", "stella",
)

# 10-50 ms where the others take 3-7 ms: one of them per block, taking
# turns, so that they are 1 request in 18 and the p90 falls inside the
# 5-7 ms cluster instead of on the edge of the slow one.
SLOW_SUBCOMMANDS = ("semigroup", "maximal")

OUT_OF_DOMAIN = (
    "classgroup_positive", "reduce_negative", "padic_even",
    "semigroup_bad_residue", "maximal_composite", "resolvent_malformed",
    "cubic_ring_word", "cube_triple_degenerate", "resolvent_trivial",
)

WORKLOADS = {w.name: w for w in (ClassGroup(), SemiGroup(), Quartic(), Cli())}
