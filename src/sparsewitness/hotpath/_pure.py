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
* when that refined mask is empty no sibling has a child, so all of them
  are charged in one step;
* leaves are handled in their parent, and in the dominating modes a
  closed-neighbourhood cover of the path replaces the per-leaf domination
  scan;
* the dominating modes look ahead (Haralick and Elliott's forward
  checking, applied to domination) at the depths k with an
  interchangeable tail: every depth d from k + 2 on has the pattern
  adjacency of depth k + 1 to the depths up to k and a base mask within
  depth k + 1's.  A child there has no dominating leaf, and is skipped,
  when its open images (the host vertices depths k + 1 to the last can
  still take) number fewer than last - k, or leave some host vertex
  outside the path's cover without a closed neighbour.  If every such d
  also has every condition of depth k + 1 among its own, directly or
  through a chain (so img(d) > img(j) whenever depth k + 1 needs
  img(k + 1) > img(j)), the open images are the child's mask for depth
  k + 1.  Otherwise a depth d may take an image that the conditions cut
  from that mask, and the count bound on it would skip dominating
  leaves; the open images are then the child's mask before the
  conditions of depth k + 1 cut it, the mask a labeled search has there.
  In K_{2,5} searched hubs first this covers depths 1 to 4;
* when the tail's depths are also pairwise non-adjacent in the pattern,
  as K_{2,5}'s leaves are, their images are an independent set of the
  host inside the open images, and the count bound becomes an
  independence bound (the clique-cover bound of colouring-based clique
  search; Tomita and Seki, DMTCS 2003).  A greedy matching pairs the
  lowest unmatched open image with its lowest unmatched neighbour among
  them.  With c open images, t disjoint edges and the c - 2t images left
  over cover the open images by c - t cliques, and an independent set
  meets each clique at most once; so a child whose matching reaches
  c - (last - k) + 1 edges is skipped.  A superset of the open images
  has at least their independence number, so the bound holds on the
  wide mask too.

The look-ahead depends on the order, the conditions and the base masks
alone.  A skipped child is still charged its one expansion, so a
dominating search tree is a subtree of the MODE_COUNT tree for the same
order and conditions, and in MODE_COUNT_DOMINATING that whole tree when
no depth has an interchangeable tail.  The host-independent part of the
set-up (the per-depth pattern adjacency, the conditions and the tails)
is the search plan, built once per pattern, order, conditions and
whether the mode dominates; per host only the base-mask test of each
tail and the closed neighbourhoods remain.

Optional symmetry-breaking conditions (``smaller``) name, per depth, the
earlier depths whose image must be the smaller host vertex.  Each is one
mask, ``-(2 << image)``, that keeps only larger vertices: a node ANDs the
masks of depths before its own into the next depth's candidate mask, and
each child ANDs in the mask of its own image.  So both leaf batches see
the last depth's conditions.  Without conditions the search tree is
unchanged.
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
    # The depths k whose later depths share depth k + 1's adjacency to the
    # depths up to k, each as (k, pattern vertex at k + 1, the pattern
    # vertices after it, wide, independent); a host whose base masks nest
    # makes them interchangeable tails (see the module docstring).  Every
    # later image lies in the child mask, or, when wide, in the child mask
    # before the conditions of depth k + 1 cut it.  independent: the
    # tail's pattern vertices are pairwise non-adjacent.
    tails = []
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
            first = order[k + 1]
            adjacency = pattern_masks[first] & placed_mask
            later = tuple(order[k + 2:])
            if all(pattern_masks[v] & placed_mask == adjacency for v in later):
                tail_mask = (1 << first) | sum(1 << v for v in later)
                tails.append((
                    k, first, later,
                    not all(below[k + 1] <= below[d] for d in range(k + 2, n_p)),
                    not any(pattern_masks[v] & tail_mask for v in (first, *later)),
                ))
    return touch, apart, lower, lower_parent, tails


def search(pattern_masks, host_masks, order, base_masks, mode, budget, smaller=None):
    """Backtracking search for induced copies of the pattern in the host.

    pattern_masks: pattern adjacency rows as bitmasks over pattern vertices.
    host_masks: host adjacency rows as bitmasks over host vertices (a
    simple graph: no row contains its own vertex).
    order: permutation of pattern vertices giving the assignment order.
    base_masks: per pattern vertex, bitmask of allowed host images.
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
    same search in MODE_COUNT.
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
    touch, apart, lower, lower_parent, tails = _build_plan(
        tuple(pattern_masks), tuple(order), smaller, dominating)
    # A vertex set dominates iff the union of its closed neighbourhoods
    # covers the host.
    closed = [row | (1 << v) for v, row in enumerate(host_masks)] if dominating else None
    # Per depth k, 0, or at a depth with an interchangeable tail last - k:
    # a child with fewer open images is skipped.  independent[k]: that
    # tail's depths are pairwise non-adjacent, so the independence bound
    # applies too.
    ahead = [0] * n_p
    wide = [False] * n_p
    independent = [False] * n_p
    for k, first, later, w, i in tails:
        later_masks = 0
        for v in later:
            later_masks |= base_masks[v]
        if not later_masks & ~base_masks[first]:
            ahead[k] = last - k
            wide[k] = w
            independent[k] = i

    assign = [0] * n_p
    rows = [0] * n_p  # host adjacency row of each assigned image
    embeddings = []
    count = 0
    expansions = 0
    exceeded = False

    def leaves(cand, cover):
        # cand: the candidates at the last depth; cover: closed
        # neighbourhood of the assigned path (dominating modes only).
        nonlocal count, expansions, exceeded
        c = cand.bit_count()
        if mode == MODE_COUNT:
            # Every remaining candidate completes a copy.
            count += c
            expansions += c
            if expansions > budget:
                exceeded = True
                return True
            return False
        if mode == MODE_COUNT_DOMINATING and expansions + c <= budget:
            # The whole batch fits the budget.  A leaf dominates iff it lies
            # in the closed neighbourhood of every vertex the path leaves
            # uncovered.
            expansions += c
            missing = full & ~cover
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
                exceeded = True
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

    def uncovered(c, images, cover):
        # True when some host vertex outside cover has no closed neighbour
        # among the c images open to the later depths.
        missing = full & ~cover
        if c < missing.bit_count():
            reach = 0
            while images:
                low = images & -images
                images ^= low
                reach |= closed[low.bit_length() - 1]
            return missing & ~reach != 0
        while missing:
            low = missing & -missing
            missing ^= low
            if not closed[low.bit_length() - 1] & images:
                return True
        return False

    def descend(k, cand, used, cover):
        # cand: the candidates at depth k < last; used: images of depths < k.
        nonlocal expansions, exceeded
        nxt = k + 1
        pre = used
        for j in apart[nxt]:
            pre |= rows[j]
        pre = base_masks[order[nxt]] & ~pre
        for j in touch[nxt]:
            pre &= rows[j]
        open_pre = pre if wide[k] else 0
        for j in lower[nxt]:
            pre &= -(2 << assign[j])
        if not pre:
            # No candidate at this depth has a child: charge them all.
            expansions += cand.bit_count()
            if expansions > budget:
                expansions = budget + 1
                exceeded = True
                return True
            return False
        adjacent = pattern_masks[order[nxt]] >> order[k] & 1
        bounded = lower_parent[nxt]
        need = ahead[k]
        independent_tail = independent[k]
        while cand:
            low = cand & -cand
            cand ^= low
            expansions += 1
            if expansions > budget:
                exceeded = True
                return True
            v = low.bit_length() - 1
            row = host_masks[v]
            child = pre & row if adjacent else pre & ~(row | low)
            if bounded:
                child &= -(low << 1)
            if not child:
                continue
            if need:
                if open_pre:
                    images = open_pre & row if adjacent else open_pre & ~(row | low)
                else:
                    images = child
                c = images.bit_count()
                # c - need + 1 disjoint edges leave no independent set of
                # need open images.
                if c < need or independent_tail and matching(images, c - need + 1):
                    continue
                child_cover = cover | closed[v]
                if uncovered(c, images, child_cover):
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
    return embeddings, count, expansions, exceeded
