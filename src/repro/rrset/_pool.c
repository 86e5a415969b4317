/*
 * The RR-set pool's kernels: the coverage bump, the main inverted-index
 * build and remove_covered.
 *
 * Compiled with the rest of the package's C sources by repro._native
 * and called through ctypes by repro.rrset.pool, which checks every
 * argument first: the arrays are C-contiguous, the node lies in
 * [0, n), every member lies in [0, n) and every set id in the index is
 * a set of the pool.  Neither kernel allocates.
 */

#include <stdint.h>

/* coverage[members[i]]++ for every i in [0, count): the coverage bump
 * of an append or a reveal, once per occurrence. */
void repro_bump_counts(
    int64_t count, const int32_t *members, int64_t *coverage)
{
    for (int64_t i = 0; i < count; i++)
        coverage[members[i]]++;
}

/*
 * The node -> set CSR index over sets first_set .. first_set + count:
 * a counting sort.  lengths[s] is set first_set + s's size and members
 * their concatenated rows.  Fills indptr[0 .. n] and
 * set_ids[0 .. total): set_ids[indptr[v] .. indptr[v + 1]) lists the
 * sets containing v in ascending order, a set that names v twice
 * twice over -- the order of a stable sort of the members.
 */
void repro_index_build(
    int64_t n, int64_t count, int64_t first_set,
    const int64_t *lengths, const int32_t *members,
    int64_t *indptr, int32_t *set_ids)
{
    int64_t total = 0, at = 0;

    for (int64_t v = 0; v <= n; v++)
        indptr[v] = 0;
    for (int64_t s = 0; s < count; s++)
        total += lengths[s];
    for (int64_t i = 0; i < total; i++)
        indptr[members[i] + 1]++;
    for (int64_t v = 0; v < n; v++)
        indptr[v + 1] += indptr[v];
    /* indptr[v] is now the next free slot of v; it advances to
     * indptr[v + 1] as v's entries land, and is shifted back below. */
    for (int64_t s = 0; s < count; s++) {
        int32_t id = (int32_t)(first_set + s);
        for (int64_t end = at + lengths[s]; at < end; at++)
            set_ids[indptr[members[at]]++] = id;
    }
    for (int64_t v = n; v > 0; v--)
        indptr[v] = indptr[v - 1];
    indptr[0] = 0;
}

/* Kill the alive sets among ids[0 .. count) below `visible` (ids
 * ascend); returns how many. */
static int64_t kill(
    const int32_t *ids, int64_t count, int64_t visible,
    uint8_t *alive, const int64_t *indptr, const int32_t *members,
    int64_t *coverage)
{
    int64_t killed = 0;
    for (int64_t i = 0; i < count && ids[i] < visible; i++) {
        int64_t set = ids[i];
        if (!alive[set])
            continue; /* dead already, or listed twice */
        alive[set] = 0;
        killed++;
        for (int64_t at = indptr[set]; at < indptr[set + 1]; at++)
            coverage[members[at]]--;
    }
    return killed;
}

/*
 * remove_covered(node): kill every alive visible set containing node,
 * decrementing coverage once per member of each; returns how many sets
 * died.  The sets are the node's slice of the main index
 * (idx_indptr / idx_sets) followed by its run in the pending tier
 * (pend_count entries: pend_nodes ascending, pend_sets in lockstep);
 * both list ascending ids, and ids >= visible are hidden sets of a kept
 * index.
 */
int64_t repro_remove_covered(
    int64_t node, int64_t visible, int64_t pend_count,
    const int64_t *idx_indptr, const int32_t *idx_sets,
    const int32_t *pend_nodes, const int32_t *pend_sets,
    uint8_t *alive, const int64_t *indptr, const int32_t *members,
    int64_t *coverage)
{
    int64_t lo = 0, hi = pend_count, killed;

    killed = kill(idx_sets + idx_indptr[node],
                  idx_indptr[node + 1] - idx_indptr[node], visible,
                  alive, indptr, members, coverage);
    /* The pending run of node: [first entry >= node, first > node). */
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (pend_nodes[mid] < node)
            lo = mid + 1;
        else
            hi = mid;
    }
    for (hi = lo; hi < pend_count && pend_nodes[hi] == node; hi++)
        ;
    return killed + kill(pend_sets + lo, hi - lo, visible,
                         alive, indptr, members, coverage);
}
