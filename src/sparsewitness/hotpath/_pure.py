"""Bitset backtracking search for induced copies of a pattern in a host.

Host adjacency rows are arbitrary-width Python ints, so there is no size
limit on the host.  The search tree (which nodes are visited, in which
order, and so the ``expansions`` counter) is fixed by the search order
and the candidate masks; the tests pin its counters on seeded hosts and
check every mode against ``graphs.induced_embeddings``.  Python work per
node is kept small:

* each node refines the next depth's candidate mask once, over the
  earlier assignments, and each child then ANDs in one host row or its
  complement (Ullmann's candidate-set refinement);
* leaves are handled in their parent: the count modes take them in one
  batch when the whole batch fits the budget, and in the dominating modes
  a closed-neighbourhood cover of the path replaces the per-leaf
  domination scan;
* the dominating modes look ahead (Haralick and Elliott's forward
  checking, applied to domination) at each depth k with an
  interchangeable tail: the depths k + 1 to the last are one class of
  twins, whose pattern vertices share one row that holds only vertices
  placed at depths up to k (so they are pairwise non-adjacent), and
  every condition of depth k + 1 binds each of them too, directly or
  through a chain (img(d) > img(j) whenever depth k + 1 needs
  img(k + 1) > img(j)).  Twins have one degree, so one base mask,
  and the images of the tail are then an independent set of the host
  inside the child's mask for depth k + 1.  A child there has no
  dominating leaf, and is skipped, when that mask has no independent set
  of last - k vertices, or fails the one domination test: the closed
  neighbourhoods of the path and of every vertex in the mask must
  together cover the host.  The independence bound is the
  clique-cover bound of colouring-based clique search (Tomita and Seki,
  DMTCS 2003): a greedy matching pairs the lowest unmatched vertex of
  the mask with its lowest unmatched neighbour there.  With c vertices,
  t disjoint edges and the c - 2t vertices left over cover the mask by
  c - t cliques, and an independent set meets each clique at most once;
  so a child with fewer than last - k vertices, or whose matching
  reaches c - (last - k) + 1 edges, is skipped.  In K_{2,5} searched
  hubs first this covers depths 1 to 4, and in W(3, 0, 4) in detect's
  order depths 19 to 21; the witness searches meet no other shape of
  tail, so no other is looked for.

The look-ahead depends on the order, the conditions and the pattern
alone.  A skipped child is still charged its one expansion, so a
dominating search tree is a subtree of the MODE_COUNT tree for the same
order and conditions, and in MODE_COUNT_DOMINATING that whole tree when
no depth looks ahead.  The host-independent set-up (the per-depth
pattern adjacency, the conditions and the look-ahead depths) is the
search plan, built once per pattern, order, conditions and whether the
mode dominates; per host only the closed neighbourhoods remain.

Optional symmetry-breaking conditions (``smaller``) name, per depth, the
earlier depths whose image must be the smaller host vertex.  Each is one
mask, ``-(2 << image)``, that keeps only larger vertices: a node ANDs the
masks of depths before its own into the next depth's candidate mask, and
each child ANDs in the mask of its own image.  So the leaves see the
last depth's conditions.  Without conditions the search tree is
unchanged.

One stop rule holds in every mode: a search that runs out of budget
stops at its first expansion past the budget, so it reports expansions
== budget + 1, and its count holds only the leaves it paid for.
"""

import functools

MODE_FIND = 0
MODE_COUNT = 1
MODE_COLLECT = 2
MODE_FIND_DOMINATING = 3
MODE_COUNT_DOMINATING = 4


@functools.lru_cache(maxsize=256)
def _build_plan(pattern_masks, order, smaller, dominating):
    """The host-independent part of the set-up, built once per (pattern
    rows, order, conditions, dominating)."""
    n_p = len(order)
    # Per search depth d, the depths before d - 1 whose pattern vertices
    # are neighbors (touch) and non-neighbors (apart) of the one at d.
    # Depth d - 1 is left out: each of its candidates applies its own row.
    touch = []
    apart = []
    for d, pv in enumerate(order):
        row = pattern_masks[pv]
        t = []
        a = []
        for j in range(d - 1):
            (t if row >> order[j] & 1 else a).append(j)
        touch.append(t)
        apart.append(a)
    # Per depth d, the conditions of ``smaller`` split as touch/apart are:
    # the depths before d - 1 whose image is a lower bound (lower), and
    # whether depth d - 1 is one (lower_parent).
    lower = [()] * n_p
    lower_parent = [False] * n_p
    if smaller is not None:
        for d, js in enumerate(smaller):
            lower[d] = tuple(j for j in js if j < d - 1)
            lower_parent[d] = d - 1 in js
    # ahead[k]: last - k at the depths k that look ahead (see the module
    # docstring), else 0.
    ahead = [0] * n_p
    if dominating:
        # below[d]: the depths whose image smaller keeps below the image
        # at depth d, directly or through a chain of conditions.
        below = []
        for js in smaller or [()] * n_p:
            chain = set(js)
            for j in js:
                chain |= below[j]
            below.append(chain)
        placed_mask = 0
        for k in range(n_p - 2):
            placed_mask |= 1 << order[k]
            row = pattern_masks[order[k + 1]]
            if (not row & ~placed_mask
                    and all(pattern_masks[order[d]] == row and below[k + 1] <= below[d]
                            for d in range(k + 2, n_p))):
                ahead[k] = n_p - 1 - k
    return touch, apart, lower, lower_parent, ahead


def search(pattern_masks, host_masks, order, base_masks, mode, budget, smaller=None):
    """Backtracking search for induced copies of the pattern in the host.

    pattern_masks: pattern adjacency rows as bitmasks over pattern vertices.
    host_masks: host adjacency rows as bitmasks over host vertices (a
    simple graph: no row contains its own vertex).
    order: permutation of pattern vertices giving the assignment order.
    base_masks: per pattern vertex, bitmask of allowed host images; the
    dominating modes need one mask per pattern row, as degree masks give.
    smaller: None, or a tuple holding per search depth a tuple of earlier
    depths whose image must be smaller than the image at that depth (it
    keys the plan cache, so it must be hashable).  With conditions
    that keep one embedding per automorphism class (see
    ``hotpath.stabilizer_chain``) a count mode counts the classes.

    Returns (embeddings, count, expansions, exceeded) where embeddings[i] is
    a tuple indexed by *pattern vertex* (not search position).  In the two
    dominating modes a complete assignment only counts when its image set
    dominates the host, and subtrees that cannot dominate are skipped (see
    the module docstring), so they spend at most the expansions of the
    same search in MODE_COUNT.  exceeded is expansions > budget: a search
    that runs out stops at expansion budget + 1 and counts only the leaves
    it paid for.
    """
    n_p, n_h = len(pattern_masks), len(host_masks)
    dominating = mode in (MODE_FIND_DOMINATING, MODE_COUNT_DOMINATING)
    counting = mode in (MODE_COUNT, MODE_COUNT_DOMINATING)
    if n_p == 0:
        # The empty assignment is the one copy; its empty image set
        # dominates only the empty host.
        if dominating and n_h:
            return [], 0, 0, False
        return ([] if counting else [()]), 1, 0, False
    if n_p > n_h:
        return [], 0, 0, False

    full = (1 << n_h) - 1
    finding = mode in (MODE_FIND, MODE_FIND_DOMINATING)
    last = n_p - 1
    touch, apart, lower, lower_parent, ahead = _build_plan(
        tuple(pattern_masks), tuple(order), smaller, dominating)
    # A vertex set dominates iff the union of its closed neighbourhoods
    # covers the host.
    closed = [row | (1 << v) for v, row in enumerate(host_masks)] if dominating else None
    assign = [0] * n_p
    rows = [0] * n_p  # host adjacency row of each assigned image
    embeddings = []
    count = 0
    expansions = 0

    def leaves(cand, cover):
        # cand: the candidates at the last depth; cover: closed
        # neighbourhood of the assigned path (dominating modes only).
        nonlocal count, expansions
        c = cand.bit_count()
        if counting and expansions + c <= budget:
            # The whole batch fits the budget.  In MODE_COUNT_DOMINATING a
            # leaf dominates iff it lies in the closed neighbourhood of
            # every vertex the path leaves uncovered.
            expansions += c
            missing = full & ~cover if dominating else 0
            while missing and cand:
                low = missing & -missing
                missing ^= low
                cand &= closed[low.bit_length() - 1]
            count += cand.bit_count()
            return False
        while cand:
            low = cand & -cand
            cand ^= low
            expansions += 1
            if expansions > budget:
                return True
            v = low.bit_length() - 1
            if dominating and cover | closed[v] != full:
                continue
            count += 1
            if not counting:
                assign[last] = v
                emb = [0] * n_p
                for i in range(n_p):
                    emb[order[i]] = assign[i]
                embeddings.append(tuple(emb))
            if finding:
                return True
        return False

    def matching(images, edges):
        # True when a greedy matching of host edges inside images reaches
        # edges disjoint ones: the lowest unmatched image takes its lowest
        # unmatched neighbour among them.
        while images:
            low = images & -images
            images ^= low
            mate = images & host_masks[low.bit_length() - 1]
            if mate:
                images ^= mate & -mate
                edges -= 1
                if not edges:
                    return True
        return False

    def uncovered(images, cover):
        # True when some host vertex outside cover has no closed neighbour
        # among the images open to the later depths.
        reach = cover
        while images:
            low = images & -images
            images ^= low
            reach |= closed[low.bit_length() - 1]
        return reach != full

    def descend(k, cand, used, cover):
        # cand: the candidates at depth k < last; used: images of depths < k.
        nonlocal expansions
        nxt = k + 1
        pre = used
        for j in apart[nxt]:
            pre |= rows[j]
        pre = base_masks[order[nxt]] & ~pre
        for j in touch[nxt]:
            pre &= rows[j]
        for j in lower[nxt]:
            pre &= -(2 << assign[j])
        adjacent = pattern_masks[order[nxt]] >> order[k] & 1
        bounded = lower_parent[nxt]
        need = ahead[k]
        while cand:
            low = cand & -cand
            cand ^= low
            expansions += 1
            if expansions > budget:
                return True
            v = low.bit_length() - 1
            row = host_masks[v]
            child = pre & row if adjacent else pre & ~(row | low)
            if bounded:
                child &= -(low << 1)
            if not child:
                continue
            if need:
                c = child.bit_count()
                # c - need + 1 disjoint edges leave no independent set of
                # need images.
                if c < need or matching(child, c - need + 1):
                    continue
                child_cover = cover | closed[v]
                if uncovered(child, child_cover):
                    continue
            elif dominating:
                child_cover = cover | closed[v]
            else:
                child_cover = 0
            assign[k] = v
            rows[k] = row
            if nxt == last:
                if leaves(child, child_cover):
                    return True
            elif descend(nxt, child, used | low, child_cover):
                return True
        return False

    if last:
        descend(0, base_masks[order[0]], 0, 0)
    else:
        leaves(base_masks[order[0]], 0)
    # descend's closure holds descend itself; unbinding it lets the search
    # state be freed on return instead of at the next cyclic collection.
    descend = None
    return embeddings, count, expansions, expansions > budget
