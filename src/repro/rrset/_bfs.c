/*
 * The package's one BFS: a batch of level-synchronous BFS-es in one
 * call.  RR-sets run it in reverse over the in-CSR, one root per set;
 * Monte-Carlo cascades forward over the out-CSR, one set per run.
 *
 * Compiled with the package's other C sources by repro._native and
 * called through ctypes (repro.graph._traversal.BfsTable) with the GIL
 * released: a table of batches, each batch with its own generator,
 * that every thread joining it pulls from one atomic cursor
 * (repro_bfs_run).  The stream contract lives in the order of the coin
 * draws, so it is spelled out here:
 *
 *   level 0 is the batch's roots: set s is rooted at
 *   roots[root_indptr[s] .. root_indptr[s + 1]) (roots[s] alone when
 *   root_indptr is NULL), each set's roots ascending and distinct, so
 *   level 0 is in ascending key order (key = set * n + node);
 *   each level walks its (set, node) pairs in ascending key order and
 *   each node's CSR slots in order, drawing one coin per slot: the
 *   generator's next_double;
 *   an edge is live iff coin < probs[slot];
 *   the live edges' (set, adjacent node) pairs not yet reached in their
 *   set form the next level, again in ascending key order.
 *
 * This is the draw sequence of one Generator.random(total) block per
 * level over the same walk, so the bytes and the final generator state
 * equal those of the numpy reference drivers for any bit generator.  A
 * member's depth is the level it was reached at: 0 for the roots.
 *
 * A coin comes from one of two arms, with the same value either way:
 *
 *   per slot: a call of the bit generator's own next_double;
 *   vector (a Philox4x64-10 entry, on an x86-64 CPU with AVX-512F/DQ):
 *   the entry carries numpy's Philox state words (philox_t), and the
 *   kernel computes the stream itself, 16 blocks (64 words) per
 *   AVX-512 step, each coin numpy's next_double of its word,
 *   (w >> 11) * 2^-53.  Philox is counter-based, so the blocks of one
 *   step are independent; the step may run past the last word used,
 *   and the state left is rebuilt from the words used: the counter of
 *   the last block touched, that block as the buffer, and the position
 *   in it.
 *
 * The caller picks the arm (repro_philox_vector says whether the CPU
 * has it) and moves the Philox words between the entry and the bit
 * generator's public state.
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

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VECTOR_ARM 1
#include <immintrin.h>
#else
#define VECTOR_ARM 0
#endif

/*
 * A Philox4x64-10 stream position as numpy's Philox keeps it
 * (bit_generator.state): the key, the counter of the block in
 * `buffer`, and how many of its words are used.  The next word is
 * buffer[buffer_pos] while buffer_pos < 4, else word 0 of the block at
 * counter + 1, the increment carried through all four counter words.
 */
typedef struct {
    uint64_t counter[4], key[2], buffer[4];
    int64_t buffer_pos;
} philox_t;

/* Words per vector step: 16 blocks of 4. */
#define TILE_WORDS 64

/* An entry's coin source: next_double(state), or with `philox` set,
 * the words of `tile`, whose first block has counter `first`. */
typedef struct {
    next_double_fn next_double;
    void *state;
    philox_t *philox;
    int64_t pos, have;
    uint64_t first[4];
    uint64_t tile[TILE_WORDS];
} coins_t;

/* counter += add, carried through all four words. */
static void counter_add(uint64_t counter[4], uint64_t add)
{
    for (int w = 0; w < 4 && add; w++) {
        counter[w] += add;
        add = counter[w] < add;
    }
}

#if VECTOR_ARM
#define VECTOR_TARGET __attribute__((target("avx512f,avx512dq")))

/* lo and hi of the 128-bit products x * m per lane, from four 32x32
 * multiplies (vpmuludq); m_lo and m_hi hold m's 32-bit halves. */
VECTOR_TARGET static inline void mulhilo(
    __m512i x, __m512i m_lo, __m512i m_hi, __m512i *lo, __m512i *hi)
{
    const __m512i low32 = _mm512_set1_epi64(0xffffffff);
    __m512i x_hi = _mm512_srli_epi64(x, 32);
    __m512i ll = _mm512_mul_epu32(x, m_lo), lh = _mm512_mul_epu32(x, m_hi);
    __m512i hl = _mm512_mul_epu32(x_hi, m_lo), hh = _mm512_mul_epu32(x_hi, m_hi);
    /* The middle column: neither sum can overflow 64 bits. */
    __m512i t = _mm512_add_epi64(lh, _mm512_srli_epi64(ll, 32));
    __m512i u = _mm512_add_epi64(hl, _mm512_and_si512(t, low32));
    /* lo's high half is u's low half, its low half ll's. */
    *lo = _mm512_mask_shuffle_epi32(ll, 0xaaaa, u, _MM_PERM_CDAB);
    *hi = _mm512_add_epi64(
        _mm512_add_epi64(hh, _mm512_srli_epi64(t, 32)), _mm512_srli_epi64(u, 32));
}

/* One Philox round on 8 blocks, lane j of x[w] being word w of block j. */
VECTOR_TARGET static inline void philox_round(__m512i x[4], __m512i k0, __m512i k1)
{
    const __m512i m0_lo = _mm512_set1_epi64(0xE14C6C93), m0_hi = _mm512_set1_epi64(0xD2E7470E);
    const __m512i m1_lo = _mm512_set1_epi64(0x95121157), m1_hi = _mm512_set1_epi64(0xCA5A8263);
    __m512i lo0, hi0, lo1, hi1;
    mulhilo(x[0], m0_lo, m0_hi, &lo0, &hi0);
    mulhilo(x[2], m1_lo, m1_hi, &lo1, &hi1);
    x[0] = _mm512_ternarylogic_epi64(hi1, x[1], k0, 0x96); /* a ^ b ^ c */
    x[1] = lo1;
    x[2] = _mm512_ternarylogic_epi64(hi0, x[3], k1, 0x96);
    x[3] = lo0;
}

/* Lanes first + offset[j] of the counter, carried through all words. */
VECTOR_TARGET static inline void counters(__m512i x[4], const uint64_t first[4], __m512i offset)
{
    const __m512i one = _mm512_set1_epi64(1), zero = _mm512_setzero_si512();
    __mmask8 carry;
    x[0] = _mm512_add_epi64(_mm512_set1_epi64((long long)first[0]), offset);
    carry = _mm512_cmplt_epu64_mask(x[0], offset);
    for (int w = 1; w < 4; w++) {
        __m512i word = _mm512_set1_epi64((long long)first[w]);
        x[w] = _mm512_mask_add_epi64(word, carry, word, one);
        carry = _mm512_mask_cmpeq_epi64_mask(carry, x[w], zero);
    }
}

/* Write 8 blocks (x[w] lane j = word w of block j) in stream order:
 * block j's four words at out[4j .. 4j + 4). */
VECTOR_TARGET static inline void store_blocks(uint64_t *out, const __m512i x[4])
{
    __m512i t0 = _mm512_unpacklo_epi64(x[0], x[1]), t1 = _mm512_unpackhi_epi64(x[0], x[1]);
    __m512i t2 = _mm512_unpacklo_epi64(x[2], x[3]), t3 = _mm512_unpackhi_epi64(x[2], x[3]);
    __m512i s0 = _mm512_shuffle_i64x2(t0, t2, 0x88), s1 = _mm512_shuffle_i64x2(t0, t2, 0xdd);
    __m512i s2 = _mm512_shuffle_i64x2(t1, t3, 0x88), s3 = _mm512_shuffle_i64x2(t1, t3, 0xdd);
    _mm512_storeu_si512(out, _mm512_shuffle_i64x2(s0, s2, 0x88));
    _mm512_storeu_si512(out + 8, _mm512_shuffle_i64x2(s1, s3, 0x88));
    _mm512_storeu_si512(out + 16, _mm512_shuffle_i64x2(s0, s2, 0xdd));
    _mm512_storeu_si512(out + 24, _mm512_shuffle_i64x2(s1, s3, 0xdd));
}

/* The 16 Philox4x64-10 blocks at counters first .. first + 15 as
 * out[0 .. 64), two 8-lane groups in flight. */
VECTOR_TARGET static void philox_fill(uint64_t *out, const uint64_t first[4], const uint64_t key[2])
{
    __m512i a[4], b[4];
    uint64_t k0 = key[0], k1 = key[1];
    counters(a, first, _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    counters(b, first, _mm512_setr_epi64(8, 9, 10, 11, 12, 13, 14, 15));
    for (int round = 0; round < 10; round++) {
        __m512i v0 = _mm512_set1_epi64((long long)k0), v1 = _mm512_set1_epi64((long long)k1);
        philox_round(a, v0, v1);
        philox_round(b, v0, v1);
        k0 += UINT64_C(0x9E3779B97F4A7C15);
        k1 += UINT64_C(0xBB67AE8584CAA73B);
    }
    store_blocks(out, a);
    store_blocks(out + 32, b);
}

/* live_mask on the vector arm: each coin (w >> 11) * 2^-53 of its word
 * w, eight compared at a time, the tile refilled whenever it runs out
 * (a refill with `have` words in the tile moves `first` past them). */
VECTOR_TARGET static inline uint64_t live_mask_vector(
    coins_t *coins, const double *probs, int64_t count)
{
    const __m512d scale = _mm512_set1_pd(1.0 / 9007199254740992.0);
    uint64_t live = 0;
    for (int64_t k = 0; k < count;) {
        int64_t take;
        if (coins->pos == coins->have) {
            counter_add(coins->first, (uint64_t)coins->have / 4);
            philox_fill(coins->tile, coins->first, coins->philox->key);
            coins->have = TILE_WORDS;
            coins->pos = 0;
        }
        take = coins->have - coins->pos < count - k ? coins->have - coins->pos : count - k;
        for (int64_t j = 0; j < take; j += 8) {
            __mmask8 in = take - j >= 8 ? 0xff : (__mmask8)((1u << (take - j)) - 1);
            __m512i words = _mm512_maskz_loadu_epi64(in, coins->tile + coins->pos + j);
            __m512d coin = _mm512_mul_pd(
                _mm512_cvtepu64_pd(_mm512_srli_epi64(words, 11)), scale);
            __m512d p = _mm512_maskz_loadu_pd(in, probs + k + j);
            live |= (uint64_t)_mm512_mask_cmp_pd_mask(in, coin, p, _CMP_LT_OQ) << (k + j);
        }
        coins->pos += take;
        k += take;
    }
    return live;
}
#endif

/* Whether the vector arm can run here: built for x86-64 and the CPU
 * has AVX-512F and AVX-512DQ. */
int64_t repro_philox_vector(void)
{
#if VECTOR_ARM
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
#else
    return 0;
#endif
}

static void coins_init(coins_t *coins, next_double_fn next_double, void *state,
                       philox_t *philox)
{
    coins->next_double = next_double;
    coins->state = state;
    coins->philox = VECTOR_ARM ? philox : NULL;
    if (coins->philox != NULL) {
        memcpy(coins->first, philox->counter, sizeof coins->first);
        memcpy(coins->tile, philox->buffer, sizeof philox->buffer);
        coins->have = 4;
        coins->pos = philox->buffer_pos;
    }
}

/* The coins of the next `count` (at most 64) slots, whose probabilities
 * start at probs: bit k is set iff slot k's edge is live.  `vector`
 * (a constant where this is inlined) picks the arm. */
static inline __attribute__((always_inline)) uint64_t live_mask(
    coins_t *coins, const double *probs, int64_t count, const int vector)
{
    uint64_t live = 0;
#if VECTOR_ARM
    if (vector)
        return live_mask_vector(coins, probs, count);
#endif
    (void)vector;
    for (int64_t k = 0; k < count; k++)
        live |= (uint64_t)(coins->next_double(coins->state) < probs[k]) << k;
    return live;
}

/* Leave the Philox words where the last coin drawn left the stream. */
static void coins_settle(coins_t *coins)
{
    philox_t *philox = coins->philox;
    int64_t block;
    if (philox == NULL || coins->pos == 0)
        return;
    block = (coins->pos - 1) / 4;
    memcpy(philox->counter, coins->first, sizeof philox->counter);
    counter_add(philox->counter, (uint64_t)block);
    memcpy(philox->buffer, coins->tile + 4 * block, sizeof philox->buffer);
    philox->buffer_pos = coins->pos - 4 * block;
}

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

/* The arguments of one batch (repro_bfs_batch), and the walk's coins. */
#define BATCH_PARAMS                                                          \
    int64_t n, int64_t batch, const int64_t *root_indptr,                     \
    const int64_t *roots, const int64_t *indptr, const int64_t *adjacent,     \
    const double *probs, coins_t *coins, int64_t *lengths,                    \
    int32_t **members_out, int32_t **depth_out
#define BATCH_ARGS                                                            \
    n, batch, root_indptr, roots, indptr, adjacent, probs, coins, lengths,    \
    members_out, depth_out

/* repro_bfs_batch's walk, inlined once per arm. */
static inline __attribute__((always_inline)) int64_t bfs_batch(
    BATCH_PARAMS, const int vector)
{
    keys_t reached = {0}, scratch = {0}, levels = {0};
    keyset_t seen = {0};
    int64_t *next = NULL;
    int32_t *members = NULL, *depth = NULL;
    int64_t total = -1, lo = 0, hi, max_key = batch * n - 1;
    int64_t root_count = root_indptr ? root_indptr[batch] : batch;
    int bytes = 0, log2cap = 10;

    *members_out = NULL;
    if (depth_out != NULL)
        *depth_out = NULL;
    while (bytes < 8 && (max_key >> (8 * bytes)))
        bytes++;
    while (((int64_t)1 << log2cap) < 2 * root_count)
        log2cap++;
    if (keys_reserve(&reached, root_count) || keyset_init(&seen, log2cap))
        goto done;
    for (int64_t s = 0; s < batch; s++)
        for (int64_t r = root_indptr ? root_indptr[s] : s,
                     end = root_indptr ? root_indptr[s + 1] : s + 1;
             r < end; r++) {
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
            for (int64_t slot = indptr[node], end = indptr[node + 1]; slot < end;
                 slot += 64) {
                uint64_t live = live_mask(
                    coins, probs + slot, end - slot < 64 ? end - slot : 64, vector);
                for (; live; live &= live - 1) {
                    int64_t found = base + adjacent[slot + __builtin_ctzll(live)];
                    int added = keyset_add(&seen, found);
                    if (added < 0)
                        goto done;
                    if (added) {
                        if (keys_reserve(&reached, reached.size + 1))
                            goto done;
                        reached.data[reached.size++] = found;
                    }
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

static int64_t bfs_batch_slots(BATCH_PARAMS)
{
    return bfs_batch(BATCH_ARGS, 0);
}

#if VECTOR_ARM
VECTOR_TARGET static int64_t bfs_batch_vector(BATCH_PARAMS)
{
    return bfs_batch(BATCH_ARGS, 1);
}
#endif

/*
 * The sets rooted at the root CSR (root_indptr, roots; one root per set
 * when root_indptr is NULL), sets in order,
 * each set's members level by level and ascending within a level (its
 * roots first), the coins drawn from `philox` (the vector arm) or, when
 * it is NULL, from next_double(state).  Writes each set's size to
 * lengths[0 .. batch) and a
 * malloc'd member array to *members_out; when depth_out is not NULL, a
 * malloc'd array of each member's depth to *depth_out (release both
 * with repro_bfs_free).  Returns the member count, or -1 if an
 * allocation failed (then nothing is left allocated).  Either way the
 * Philox words are left where the last coin drawn left the stream.
 */
static int64_t repro_bfs_batch(
    int64_t n, int64_t batch, const int64_t *root_indptr, const int64_t *roots,
    const int64_t *indptr, const int64_t *adjacent, const double *probs,
    next_double_fn next_double, void *state, philox_t *philox,
    int64_t *lengths, int32_t **members_out, int32_t **depth_out)
{
    coins_t coins_at, *coins = &coins_at;
    int64_t total;
    coins_init(coins, next_double, state, philox);
#if VECTOR_ARM
    if (coins->philox != NULL)
        total = bfs_batch_vector(BATCH_ARGS);
    else
#endif
        total = bfs_batch_slots(BATCH_ARGS);
    coins_settle(coins);
    return total;
}

/*
 * One entry of a task table: a batch of BFS-es with its own generator,
 * and its outputs.  Laid out as repro.graph._traversal.BfsTask.
 */
typedef struct {
    int64_t n, batch;
    const int64_t *root_indptr, *roots, *indptr, *adjacent;
    const double *probs;
    next_double_fn next_double;
    void *state;
    int64_t *lengths;
    int64_t want_depth;
    int64_t total;        /* repro_bfs_batch's result */
    int32_t *members, *depth;
    int64_t done;         /* set, with a release store, once the outputs are */
    int64_t philox;       /* draw from `words` (the vector arm), not next_double */
    philox_t words;
} bfs_task_t;

/*
 * Run tasks[0 .. count) pulled from the shared *cursor, one whole task
 * at a time, until tasks[until] is done or, with until < 0, until the
 * cursor passes the end; never waits for a task another thread took.
 * Returns how many tasks this call ran.  Each task's generator is
 * touched by the one thread that took the task.
 */
int64_t repro_bfs_run(bfs_task_t *tasks, int64_t count, int64_t *cursor,
                      int64_t until)
{
    int64_t ran = 0;
    while (until < 0 || !__atomic_load_n(&tasks[until].done, __ATOMIC_ACQUIRE)) {
        int64_t i = __atomic_fetch_add(cursor, 1, __ATOMIC_RELAXED);
        bfs_task_t *task;
        if (i >= count)
            break;
        task = tasks + i;
        task->total = repro_bfs_batch(
            task->n, task->batch, task->root_indptr, task->roots,
            task->indptr, task->adjacent, task->probs, task->next_double,
            task->state, task->philox ? &task->words : NULL,
            task->lengths, &task->members,
            task->want_depth ? &task->depth : NULL);
        __atomic_store_n(&task->done, 1, __ATOMIC_RELEASE);
        ran++;
    }
    return ran;
}

/* Whether tasks[i] is done: its outputs are visible to the caller. */
int64_t repro_bfs_done(const bfs_task_t *tasks, int64_t i)
{
    return __atomic_load_n(&tasks[i].done, __ATOMIC_ACQUIRE);
}

/* Move the cursor past the end: no call pulls another task. */
void repro_bfs_stop(int64_t *cursor, int64_t count)
{
    __atomic_store_n(cursor, count, __ATOMIC_SEQ_CST);
}
