/*
 * The package's one BFS: a batch of level-synchronous BFS-es in one
 * call.  RR-sets run it in reverse over the in-CSR, one root per set;
 * Monte-Carlo cascades forward over the out-CSR, one set per run.
 *
 * Compiled with the package's other C sources by repro._native and
 * called through ctypes by repro.graph._traversal.bfs_batch with the GIL
 * released and the generator's lock held.  The stream contract lives in
 * the order of the coin draws, so it is spelled out here:
 *
 *   level 0 is the batch's roots: set s is rooted at
 *   roots[root_indptr[s] .. root_indptr[s + 1]), each set's roots
 *   ascending and distinct, so level 0 is in ascending key order
 *   (key = set * n + node);
 *   each level walks its (set, node) pairs in ascending key order and
 *   each node's CSR slots in order, drawing one coin per slot with the
 *   generator's own next_double;
 *   an edge is live iff coin < probs[slot];
 *   the live edges' (set, adjacent node) pairs not yet reached in their
 *   set form the next level, again in ascending key order.
 *
 * This is the draw sequence of one Generator.random(total) block per
 * level over the same walk, so the bytes and the final generator state
 * equal those of the numpy reference drivers for any bit generator.  A
 * member's depth is the level it was reached at: 0 for the roots.
 *
 * Memory is O(members of the batch): the reached pairs, a hash set of
 * their keys, a radix-sort scratch buffer and the output.  Every
 * allocation is freed on every path; -1 reports an allocation failure.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef double (*next_double_fn)(void *state);

#define EMPTY (-1)

/* A growable array of keys. */
typedef struct {
    int64_t *data;
    int64_t size;
    int64_t cap;
} keys_t;

static int keys_reserve(keys_t *keys, int64_t need)
{
    int64_t cap = keys->cap ? keys->cap : 1024;
    int64_t *data;
    if (need <= keys->cap)
        return 0;
    while (cap < need)
        cap *= 2;
    data = realloc(keys->data, (size_t)cap * sizeof *data);
    if (data == NULL)
        return -1;
    keys->data = data;
    keys->cap = cap;
    return 0;
}

/* An open-addressing hash set of non-negative keys: linear probing,
 * power-of-two capacity, at most half full. */
typedef struct {
    int64_t *slots;
    int64_t size;
    int shift; /* 64 - log2(capacity) */
} keyset_t;

static inline uint64_t keyset_home(const keyset_t *set, int64_t key)
{
    return ((uint64_t)key * UINT64_C(0x9E3779B97F4A7C15)) >> set->shift;
}

static int keyset_init(keyset_t *set, int log2cap)
{
    size_t cap = (size_t)1 << log2cap;
    set->slots = malloc(cap * sizeof *set->slots);
    if (set->slots == NULL)
        return -1;
    memset(set->slots, 0xff, cap * sizeof *set->slots); /* all EMPTY */
    set->size = 0;
    set->shift = 64 - log2cap;
    return 0;
}

static void keyset_place(keyset_t *set, int64_t key)
{
    uint64_t mask = (UINT64_C(1) << (64 - set->shift)) - 1;
    uint64_t at = keyset_home(set, key);
    while (set->slots[at] != EMPTY)
        at = (at + 1) & mask;
    set->slots[at] = key;
}

static int keyset_grow(keyset_t *set)
{
    keyset_t bigger;
    int64_t old_cap = (int64_t)1 << (64 - set->shift);
    if (keyset_init(&bigger, 65 - set->shift))
        return -1;
    for (int64_t i = 0; i < old_cap; i++)
        if (set->slots[i] != EMPTY)
            keyset_place(&bigger, set->slots[i]);
    bigger.size = set->size;
    free(set->slots);
    *set = bigger;
    return 0;
}

/* 1 if `key` was added, 0 if it was already there, -1 on allocation
 * failure. */
static int keyset_add(keyset_t *set, int64_t key)
{
    uint64_t mask, at;
    if (2 * (set->size + 1) > ((int64_t)1 << (64 - set->shift))
        && keyset_grow(set))
        return -1;
    mask = (UINT64_C(1) << (64 - set->shift)) - 1;
    at = keyset_home(set, key);
    while (set->slots[at] != EMPTY) {
        if (set->slots[at] == key)
            return 0;
        at = (at + 1) & mask;
    }
    set->slots[at] = key;
    set->size++;
    return 1;
}

/* Sort `count` distinct non-negative keys ascending: an LSD radix sort
 * over the key's `bytes` low bytes through `scratch`. */
static int sort_keys(int64_t *keys, int64_t count, int bytes, keys_t *scratch)
{
    int64_t *src = keys, *dst, *swap;
    if (count < 2)
        return 0;
    if (keys_reserve(scratch, count))
        return -1;
    dst = scratch->data;
    for (int shift = 0; shift < 8 * bytes; shift += 8) {
        int64_t start[256] = {0}, sum = 0;
        for (int64_t i = 0; i < count; i++)
            start[(src[i] >> shift) & 0xff]++;
        if (start[(src[0] >> shift) & 0xff] == count)
            continue; /* one bucket: this byte is already in order */
        for (int b = 0; b < 256; b++) {
            int64_t here = start[b];
            start[b] = sum;
            sum += here;
        }
        for (int64_t i = 0; i < count; i++)
            dst[start[(src[i] >> shift) & 0xff]++] = src[i];
        swap = src;
        src = dst;
        dst = swap;
    }
    if (src != keys)
        memcpy(keys, src, (size_t)count * sizeof *keys);
    return 0;
}

void repro_bfs_free(void *members)
{
    free(members);
}

/*
 * The sets rooted at the root CSR (root_indptr, roots), sets in order,
 * each set's members level by level and ascending within a level (its
 * roots first).  Writes each set's size to lengths[0 .. batch) and a
 * malloc'd member array to *members_out; when depth_out is not NULL, a
 * malloc'd array of each member's depth to *depth_out (release both
 * with repro_bfs_free).  Returns the member count, or -1 if an
 * allocation failed (then nothing is left allocated).
 */
int64_t repro_bfs_batch(
    int64_t n, int64_t batch, const int64_t *root_indptr, const int64_t *roots,
    const int64_t *indptr, const int64_t *adjacent, const double *probs,
    next_double_fn next_double, void *state,
    int64_t *lengths, int32_t **members_out, int32_t **depth_out)
{
    keys_t reached = {0}, scratch = {0}, levels = {0};
    keyset_t seen = {0};
    int64_t *next = NULL;
    int32_t *members = NULL, *depth = NULL;
    int64_t total = -1, lo = 0, hi, max_key = batch * n - 1;
    int bytes = 0, log2cap = 10;

    *members_out = NULL;
    if (depth_out != NULL)
        *depth_out = NULL;
    while (bytes < 8 && (max_key >> (8 * bytes)))
        bytes++;
    while (((int64_t)1 << log2cap) < 2 * root_indptr[batch])
        log2cap++;
    if (keys_reserve(&reached, root_indptr[batch]) || keyset_init(&seen, log2cap))
        goto done;
    for (int64_t s = 0; s < batch; s++)
        for (int64_t r = root_indptr[s]; r < root_indptr[s + 1]; r++) {
            reached.data[reached.size] = s * n + roots[r];
            if (keyset_add(&seen, reached.data[reached.size++]) < 0)
                goto done;
        }
    hi = reached.size;

    /* Level [lo, hi) of `reached` is the frontier; the next level is
     * appended behind it, then sorted in place.  `levels` holds each lo. */
    while (lo < hi) {
        if (keys_reserve(&levels, levels.size + 1))
            goto done;
        levels.data[levels.size++] = lo;
        for (int64_t i = lo; i < hi; i++) {
            int64_t key = reached.data[i];
            int64_t base = key - key % n;
            int64_t node = key - base;
            for (int64_t slot = indptr[node]; slot < indptr[node + 1]; slot++) {
                int64_t found;
                int added;
                if (!(next_double(state) < probs[slot]))
                    continue;
                found = base + adjacent[slot];
                added = keyset_add(&seen, found);
                if (added < 0)
                    goto done;
                if (added) {
                    if (keys_reserve(&reached, reached.size + 1))
                        goto done;
                    reached.data[reached.size++] = found;
                }
            }
        }
        if (sort_keys(reached.data + hi, reached.size - hi, bytes, &scratch))
            goto done;
        lo = hi;
        hi = reached.size;
    }

    /* Regroup by set: a stable counting sort on the set id keeps the
     * level order, and the ascending order within a level. */
    next = malloc((size_t)batch * sizeof *next);
    members = malloc((size_t)(reached.size ? reached.size : 1) * sizeof *members);
    if (depth_out != NULL)
        depth = malloc((size_t)(reached.size ? reached.size : 1) * sizeof *depth);
    if (next == NULL || members == NULL || (depth_out != NULL && depth == NULL))
        goto done;
    memset(lengths, 0, (size_t)batch * sizeof *lengths);
    for (int64_t i = 0; i < reached.size; i++)
        lengths[reached.data[i] / n]++;
    for (int64_t s = 0, sum = 0; s < batch; s++) {
        next[s] = sum;
        sum += lengths[s];
    }
    for (int64_t i = 0, level = 0; i < reached.size; i++) {
        int64_t s = reached.data[i] / n;
        if (level + 1 < levels.size && levels.data[level + 1] == i)
            level++;
        if (depth != NULL)
            depth[next[s]] = (int32_t)level;
        members[next[s]++] = (int32_t)(reached.data[i] - s * n);
    }
    *members_out = members;
    members = NULL;
    if (depth_out != NULL) {
        *depth_out = depth;
        depth = NULL;
    }
    total = reached.size;

done:
    free(depth);
    free(members);
    free(next);
    free(seen.slots);
    free(scratch.data);
    free(levels.data);
    free(reached.data);
    return total;
}
