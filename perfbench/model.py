"""The benchmark's own graph model, kept apart from switchkit.

Graphs are lists of bit rows (bit u of rows[v] set iff uv is an edge), the
same convention switchkit uses, but every routine here is written from the
definitions so the checks never ask the program to grade itself.  Nothing in
this module imports switchkit or networkx.
"""

from __future__ import annotations

import random


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def from_edges(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def switch(rows: list[int], amask: int) -> list[int]:
    """Reverse every adjacency between A and the rest."""
    full = (1 << len(rows)) - 1
    co = full & ~amask
    return [r ^ co if amask >> v & 1 else r ^ amask for v, r in enumerate(rows)]


def complement(rows: list[int]) -> list[int]:
    full = (1 << len(rows)) - 1
    return [full & ~r & ~(1 << v) for v, r in enumerate(rows)]


def relabel(rows: list[int], perm: list[int]) -> list[int]:
    """Vertex v of the input becomes vertex perm[v]."""
    out = [0] * len(rows)
    for v, r in enumerate(rows):
        row = 0
        for u in bits(r):
            row |= 1 << perm[u]
        out[perm[v]] = row
    return out


def disjoint_union(*parts: list[int]) -> list[int]:
    out: list[int] = []
    for rows in parts:
        shift = len(out)
        out.extend(r << shift for r in rows)
    return out


# -- graph6, written from the format description ----------------------------


def to_graph6(rows: list[int]) -> str:
    n = len(rows)
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = [chr(126)] + [chr((n >> s & 63) + 63) for s in (12, 6, 0)]
    acc = nbits = 0
    for j in range(1, n):
        rj = rows[j]
        for i in range(j):
            acc = acc << 1 | (rj >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def from_graph6(text: str) -> list[int]:
    data = [ord(c) - 63 for c in text.strip()]
    if data[0] == 63:
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if body[pos // 6] >> (5 - pos % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return rows


# -- induced-pattern tests by definition -------------------------------------


def has_p3(rows: list[int]) -> bool:
    """An edge uv whose closed neighbourhoods differ gives an induced P3."""
    for u, r in enumerate(rows):
        for v in bits(r):
            if r | 1 << u != rows[v] | 1 << v:
                return True
    return False


def has_k3(rows: list[int]) -> bool:
    return any(rows[u] & rows[v] for u, r in enumerate(rows) for v in bits(r))


def has_c4(rows: list[int]) -> bool:
    """Two non-adjacent vertices with two non-adjacent common neighbours."""
    n = len(rows)
    for a in range(n):
        for c in range(a + 1, n):
            if rows[a] >> c & 1:
                continue
            common = rows[a] & rows[c]
            for b in bits(common):
                if common & ~rows[b] & ~(1 << b):
                    return True
    return False


def has_c5(rows: list[int]) -> bool:
    """An induced P3 a-b-c closed by an edge d-e into a five-cycle."""
    for b, rb in enumerate(rows):
        for a in bits(rb):
            for c in bits(rb & ~rows[a] & ~(1 << a)):
                if c < a:
                    continue
                near_c = rows[c] & ~rows[a] & ~rb & ~(1 << a)
                near_a = rows[a] & ~rows[c] & ~rb & ~(1 << c)
                if any(rows[d] & near_a for d in bits(near_c)):
                    return True
    return False


def has_paw(rows: list[int]) -> bool:
    """A vertex whose neighbourhood holds an edge plus a vertex missing both."""
    for a, na in enumerate(rows):
        for b in bits(na):
            for c in bits(na & rows[b]):
                if na & ~rows[b] & ~rows[c] & ~(1 << b | 1 << c):
                    return True
    return False


def is_bipartite(rows: list[int]) -> bool:
    n = len(rows)
    side = [-1] * n
    for s in range(n):
        if side[s] >= 0:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in bits(rows[v]):
                if side[u] < 0:
                    side[u] = side[v] ^ 1
                    stack.append(u)
                elif side[u] == side[v]:
                    return False
    return True


def _has_2k2(rows: list[int]) -> bool:
    return has_c4(complement(rows))


def _has_k2_k1(rows: list[int]) -> bool:
    return has_p3(complement(rows))


# Target classes of the upper algorithms, each as its forbidden set.
CLASS_TESTS = {
    "split": lambda r: not (has_c4(r) or _has_2k2(r) or has_c5(r)),
    "pseudo-split": lambda r: not (has_c4(r) or _has_2k2(r)),
    "paw-free": lambda r: not has_paw(r),
    "bipartite": is_bipartite,
    "bipartite-chain": lambda r: not (has_k3(r) or _has_2k2(r) or has_c5(r)),
    "star-costar": lambda r: not (has_p3(r) or _has_k2_k1(r)),
}


def all_switching_sets(rows: list[int], in_class) -> set[int]:
    """Every A avoiding vertex 0 whose switch is in the class.

    Walks the 2^(n-1) sets in Gray-code order, so each step flips one vertex:
    that vertex's row is complemented and its bit toggles in every other row.
    """
    n = len(rows)
    cur = list(rows)
    full = (1 << n) - 1
    amask = 0
    found = {0} if in_class(cur) else set()
    for step in range(1, 1 << max(n - 1, 0)):
        w = (step & -step).bit_length()  # the lowest set bit of step, plus one
        amask ^= 1 << w
        for v in range(n):
            cur[v] ^= 1 << w
        cur[w] ^= full  # toggles w's row against everyone; undoes the self bit
        if in_class(cur):
            found.add(amask)
    return found


# -- planted members, built from each class's definition ---------------------


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> list[int]:
    return from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def _split_member(rng: random.Random, n: int, k: int) -> list[int]:
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(u, v) for u in range(k) for v in range(k, n) if rng.random() < 0.5]
    return from_edges(n, edges)


def _pseudo_split_member(rng: random.Random, n: int) -> list[int]:
    # vertices 0..4 form the C5 H, then a clique K complete to H and an
    # independent set I anticomplete to H
    k = rng.randint(1, n - 6)
    edges = [(i, (i + 1) % 5) for i in range(5)]
    kverts = range(5, 5 + k)
    iverts = range(5 + k, n)
    edges += [(u, v) for u in kverts for v in kverts if u < v]
    edges += [(u, h) for u in kverts for h in range(5)]
    edges += [(u, v) for u in kverts for v in iverts if rng.random() < 0.5]
    return from_edges(n, edges)


def _complete_multipartite(rng: random.Random, n: int) -> list[int]:
    part = [rng.randrange(rng.randint(2, 4)) for _ in range(n)]
    return from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
    )


def _bipartite_member(rng: random.Random, n: int) -> list[int]:
    side = [rng.randrange(2) for _ in range(n)]
    return from_edges(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if side[u] != side[v] and rng.random() < 0.5
        ],
    )


def _paw_free_member(rng: random.Random, n: int) -> list[int]:
    # every component is triangle-free or complete multipartite
    a = rng.randint(n // 3, n - n // 3)
    return disjoint_union(_complete_multipartite(rng, a), _bipartite_member(rng, n - a))


def _chain_member(rng: random.Random, n: int) -> list[int]:
    # X = 0..a-1, and each y in Y sees the prefix x_0..x_{t_y - 1}
    a = rng.randint(2, n - 2)
    edges = []
    for y in range(a, n):
        edges += [(x, y) for x in range(rng.randint(0, a))]
    return from_edges(n, edges)


def planted_member(rng: random.Random, target: str, n: int) -> list[int]:
    if target == "split":
        rows = _split_member(rng, n, rng.randint(1, n - 1))
    elif target == "pseudo-split":
        rows = _pseudo_split_member(rng, n)
    elif target == "paw-free":
        rows = _paw_free_member(rng, n)
    elif target == "bipartite":
        rows = _bipartite_member(rng, n)
    elif target == "bipartite-chain":
        rows = _chain_member(rng, n)
    elif target == "star-costar":
        rows = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        if rng.random() < 0.5:
            rows = [0] * n
    else:
        raise ValueError(f"no planted generator for {target!r}")
    return rows


def shuffled(rng: random.Random, rows: list[int]) -> list[int]:
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return relabel(rows, perm)


def random_subset(rng: random.Random, n: int) -> int:
    return mask_of(v for v in range(n) if rng.random() < 0.5)


def nae_holds(clauses, assignment) -> bool:
    """Not-all-equal: every clause sees both a TRUE and a FALSE variable."""
    return all(len({assignment[v] for v in clause}) == 2 for clause in clauses)
