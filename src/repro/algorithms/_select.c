/*
 * Algorithm 3's per-ad candidate search: the lazy heap walk and the
 * coverage pass it falls back to, one call per
 * AllocationSession._best_candidate(ad, state).
 *
 * Compiled with the rest of the package's C sources by repro._native,
 * with -ffp-contract=off, and called through ctypes by
 * repro.algorithms.session, which binds one repro_select_t per ad (its
 * heap arrays, the pool's coverage vector, the ad's CTP row, the
 * allocation's seed mask and assignment counts, the attention bounds)
 * and checks every array it binds.
 *
 * Exactness contract: the answers are the doubles the Python walk it
 * replaced computes, so seeds, revenues, theta trajectories and dsan
 * roots do not move.
 *
 *   marginal = ((cpe * n) * ctp) * cov / theta, left to right
 *              (Theorem 5; AllocationSession._marginal_revenue);
 *   drop     = before - (|B - (R + marginal)| + lambda * (k + 1)),
 *              before = |B - R| + lambda * k (regret_of, Eq. 3);
 *   score    = ctp * cov under the weighted rule, cov under coverage;
 *   fits     = marginal <= B - R.
 *
 *   A heap entry is fresh iff math.isclose(score, -key, rel_tol=1e-12,
 *   abs_tol=1e-12), computed as CPython computes it.  Ties use
 *   greedy._beats's 1e-12 band.  Heap order is (-score, node); a node
 *   is in the heap at most once, so keys are unique and any correct
 *   binary heap pops the same sequence.
 *
 *   The pass keeps the scan's semantics exactly: "some node lowers
 *   regret" is asked over all nodes; the first fit is the eligible node
 *   that fits with the highest score, then the smallest id; the nodes
 *   ahead of it are folded with _beats in (-score, node) order.  Nodes
 *   of score 0 are skipped: their marginal is 0, so their drop is
 *   before - (before + lambda) <= 0 and they lower nothing.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Mirrored field for field by repro.algorithms.session._SelectView. */
typedef struct {
    /* The lazy max-heap: entry i is (keys[i], nodes[i]) = (-score at
     * push time, node), a min-heap on that pair. */
    double *keys;
    int64_t *nodes;
    int64_t size;
    /* Read-only views of the run state, each of length n. */
    const int64_t *coverage;
    const double *ctps;
    const uint8_t *seeds;  /* 1 iff the node is this ad's seed already */
    const int64_t *counts; /* how many ads each user is a seed for */
    const int64_t *kappa;  /* attention bounds */
    int64_t n;
    int64_t weighted;
    double cpe, budget, penalty;
    /* The answer of the last call that returned 1. */
    int64_t node, cov;
    double marginal, drop;
    /* Running totals, read by the tests: fresh-entry searches (one per
     * walked entry, plus one that may find the heap empty) and passes. */
    int64_t pops, passes;
} repro_select_t;

enum { NO_ANSWER = 0, ANSWER = 1, RETIRE = 2, NO_MEMORY = -1 };

/* The per-call arithmetic, shared by the walk and the pass. */
typedef struct {
    double revenue, remaining, before, n, theta, after_seeds;
} terms_t;

static inline int precedes(double key, int64_t node, double other_key,
                           int64_t other_node)
{
    /* (key, node) < (other_key, other_node) as Python compares tuples. */
    return key < other_key || (key == other_key && node < other_node);
}

static void sift_down(repro_select_t *ad, int64_t at)
{
    double key = ad->keys[at];
    int64_t node = ad->nodes[at];
    for (;;) {
        int64_t child = 2 * at + 1;
        if (child >= ad->size)
            break;
        if (child + 1 < ad->size
            && precedes(ad->keys[child + 1], ad->nodes[child + 1],
                        ad->keys[child], ad->nodes[child]))
            child++;
        if (!precedes(ad->keys[child], ad->nodes[child], key, node))
            break;
        ad->keys[at] = ad->keys[child];
        ad->nodes[at] = ad->nodes[child];
        at = child;
    }
    ad->keys[at] = key;
    ad->nodes[at] = node;
}

static void push(repro_select_t *ad, double key, int64_t node)
{
    int64_t at = ad->size++;
    while (at > 0) {
        int64_t parent = (at - 1) / 2;
        if (!precedes(key, node, ad->keys[parent], ad->nodes[parent]))
            break;
        ad->keys[at] = ad->keys[parent];
        ad->nodes[at] = ad->nodes[parent];
        at = parent;
    }
    ad->keys[at] = key;
    ad->nodes[at] = node;
}

/* Drop the top entry; slot `size` is free afterwards. */
static void pop(repro_select_t *ad)
{
    ad->size--;
    ad->keys[0] = ad->keys[ad->size];
    ad->nodes[0] = ad->nodes[ad->size];
    if (ad->size)
        sift_down(ad, 0);
}

static inline int eligible(const repro_select_t *ad, int64_t node)
{
    return !ad->seeds[node] && ad->counts[node] < ad->kappa[node];
}

static inline double marginal_of(const repro_select_t *ad, const terms_t *t,
                                 int64_t node, int64_t cov)
{
    return ad->cpe * t->n * ad->ctps[node] * (double)cov / t->theta;
}

static inline double drop_of(const repro_select_t *ad, const terms_t *t,
                             double marginal)
{
    return t->before
        - (fabs(ad->budget - (t->revenue + marginal))
           + ad->penalty * t->after_seeds);
}

/* greedy._beats */
static inline int beats(double drop, int fits, double best_drop,
                        int best_fits)
{
    if (drop > best_drop + 1e-12)
        return 1;
    return fabs(drop - best_drop) <= 1e-12 && fits && !best_fits;
}

/* math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12) */
static int isclose(double a, double b)
{
    double diff;
    if (a == b)
        return 1;
    if (isinf(a) || isinf(b))
        return 0;
    diff = fabs(b - a);
    return diff <= fabs(1e-12 * b) || diff <= fabs(1e-12 * a)
        || diff <= 1e-12;
}

/* Pop the eligible node with the largest fresh score into *node, *cov
 * and *score; 0 when no eligible node of positive score is left.
 * Ineligible and zero-score entries leave the heap for good; a stale
 * entry goes back under its current score, which is never larger
 * (coverage only falls between rebuilds). */
static int pop_fresh(repro_select_t *ad, int64_t *node, int64_t *cov,
                     double *score)
{
    ad->pops++;
    while (ad->size) {
        int64_t top = ad->nodes[0];
        int64_t here;
        double current;
        if (!eligible(ad, top)) {
            pop(ad);
            continue;
        }
        here = ad->coverage[top];
        current = ad->weighted ? ad->ctps[top] * (double)here : (double)here;
        if (current <= 0.0) {
            pop(ad);
            continue;
        }
        if (isclose(current, -ad->keys[0])) {
            pop(ad);
            *node = top;
            *cov = here;
            *score = current;
            return 1;
        }
        ad->keys[0] = -current;
        sift_down(ad, 0);
    }
    return 0;
}

typedef struct {
    double score, value; /* value: the marginal, then the drop */
    int64_t node;
} entry_t;

/* Order entries[0 .. count) by (-score, node), given them in ascending
 * node order: a stable LSD radix sort on the score's bits, whose order
 * is the order of the positive doubles.  1 on success. */
static int sort_heap_order(entry_t *entries, int64_t count)
{
    entry_t *src = entries, *dst, *swap;
    if (count < 2)
        return 1;
    dst = malloc((size_t)count * sizeof *dst);
    if (dst == NULL)
        return 0;
    for (int shift = 0; shift < 64; shift += 8) {
        int64_t start[256] = {0}, sum = 0;
        uint64_t first;
        memcpy(&first, &src[0].score, sizeof first);
        for (int64_t i = 0; i < count; i++) {
            uint64_t bits;
            memcpy(&bits, &src[i].score, sizeof bits);
            start[255 - ((bits >> shift) & 0xff)]++;
        }
        if (start[255 - ((first >> shift) & 0xff)] == count)
            continue; /* one bucket: this byte is already in order */
        for (int b = 0; b < 256; b++) {
            int64_t here = start[b];
            start[b] = sum;
            sum += here;
        }
        for (int64_t i = 0; i < count; i++) {
            uint64_t bits;
            memcpy(&bits, &src[i].score, sizeof bits);
            dst[start[255 - ((bits >> shift) & 0xff)]++] = src[i];
        }
        swap = src;
        src = dst;
        dst = swap;
    }
    if (src != entries) {
        memcpy(entries, src, (size_t)count * sizeof *entries);
        free(src);
    } else {
        free(dst);
    }
    return 1;
}

static int answer(repro_select_t *ad, const terms_t *t, int64_t node)
{
    ad->node = node;
    ad->cov = ad->coverage[node];
    ad->marginal = marginal_of(ad, t, node, ad->cov);
    ad->drop = drop_of(ad, t, ad->marginal);
    return ANSWER;
}

/* The weighted scan from its first entry, computed from the coverage
 * vector instead of walked: the first eligible node that fits in heap
 * order, and the _beats fold over the eligible nodes ahead of it that
 * lower regret.  Retires the ad when no node is eligible, or when the
 * top one overshoots and no node at all lowers regret. */
static int pass(repro_select_t *ad, const terms_t *t)
{
    const int64_t *coverage = ad->coverage;
    const double *ctps = ad->ctps;
    int64_t top = -1, first_fit = -1, count = 0, ahead = 0, winner = -1;
    int any_lowers = 0, top_fits = 0;
    double top_score = 0.0, fit_score = 0.0, best_drop = 0.0;
    entry_t *over;

    ad->passes++;
    /* The eligible nodes that overshoot, in node order, with their
     * marginals: the only ones that can be ahead of the first fit. */
    over = malloc((size_t)(ad->n ? ad->n : 1) * sizeof *over);
    if (over == NULL)
        return NO_MEMORY;
    for (int64_t v = 0; v < ad->n; v++) {
        double score = ctps[v] * (double)coverage[v], marginal;
        if (!(score > 0.0))
            continue;
        marginal = marginal_of(ad, t, v, coverage[v]);
        if (!any_lowers)
            any_lowers = drop_of(ad, t, marginal) > 1e-12;
        if (!eligible(ad, v))
            continue;
        if (top < 0 || score > top_score) {
            top = v;
            top_score = score;
            top_fits = marginal <= t->remaining;
        }
        if (marginal <= t->remaining) {
            if (first_fit < 0 || score > fit_score) {
                first_fit = v;
                fit_score = score;
            }
        } else {
            over[count].score = score;
            over[count].value = marginal;
            over[count].node = v;
            count++;
        }
    }
    if (top < 0 || !any_lowers) {
        free(over);
        if (top < 0)
            return RETIRE;
        return top_fits ? NO_ANSWER : RETIRE;
    }
    /* Ahead of the first fit: a larger score, or an equal one at a
     * smaller id; and lowering regret. */
    for (int64_t i = 0; i < count; i++) {
        entry_t here = over[i];
        if (first_fit >= 0
            && !(here.score > fit_score
                 || (here.score == fit_score && here.node < first_fit)))
            continue;
        here.value = drop_of(ad, t, here.value);
        if (here.value > 1e-12)
            over[ahead++] = here;
    }
    if (!sort_heap_order(over, ahead)) {
        free(over);
        return NO_MEMORY;
    }
    for (int64_t i = 0; i < ahead; i++) {
        if (beats(over[i].value, 0, best_drop, 0)) {
            winner = over[i].node;
            best_drop = over[i].value;
        }
    }
    free(over);
    if (first_fit >= 0) {
        double drop = drop_of(
            ad, t, marginal_of(ad, t, first_fit, coverage[first_fit]));
        if (drop > 1e-12 && beats(drop, 1, best_drop, 0))
            winner = first_fit;
    }
    return winner < 0 ? NO_ANSWER : answer(ad, t, winner);
}

/*
 * The argmax-drop candidate of one ad with revenue R below its budget,
 * k seeds and theta sets (the caller answers B - R <= 0 itself): walks at most `limit` fresh heap entries (pass 1 under the
 * coverage rule), then answers by the pass if the walk did not settle
 * the scan.  Returns ANSWER (the candidate is in node / cov / marginal
 * / drop), NO_ANSWER, RETIRE (no answer, and the ad can never have
 * one), or NO_MEMORY.  The heap is left a valid lazy heap.
 */
int64_t repro_select(repro_select_t *ad, double revenue, int64_t num_seeds,
                     int64_t theta, int64_t limit)
{
    terms_t t;
    int64_t end = ad->size, scanned = 0, best = -1;
    double best_drop = 0.0;
    int literal = !ad->weighted, answered = 0;

    t.revenue = revenue;
    t.remaining = ad->budget - revenue;
    t.before = fabs(ad->budget - revenue) + ad->penalty * (double)num_seeds;
    t.n = (double)ad->n;
    t.theta = (double)theta;
    t.after_seeds = (double)(num_seeds + 1);

    while (scanned < limit) {
        int64_t node, cov;
        double score, marginal, drop;
        int fits;
        if (!pop_fresh(ad, &node, &cov, &score)) {
            if (!scanned)
                return RETIRE;
            break;
        }
        /* Park the entry in a slot the heap has freed: slot end - 1 - i
         * for the i-th one, never below the heap's size. */
        scanned++;
        ad->keys[end - scanned] = -score;
        ad->nodes[end - scanned] = node;
        marginal = marginal_of(ad, &t, node, cov);
        drop = drop_of(ad, &t, marginal);
        fits = marginal <= t.remaining;
        /* Every entry before this one overshot. */
        if (drop > 1e-12 && beats(drop, fits, best_drop, 0)) {
            best = node;
            best_drop = drop;
        }
        if (literal || fits) {
            /* Empty-handed under a top entry that overshoots, the ad
             * may have to be retired, which only the pass can tell. */
            answered = best >= 0 || scanned == 1;
            break;
        }
    }
    /* Lowest parked slot first: each push writes at or below the slot
     * it reads, and above every slot still to be read. */
    for (int64_t i = scanned; i > 0; i--)
        push(ad, ad->keys[end - i], ad->nodes[end - i]);
    if (answered)
        return best < 0 ? NO_ANSWER : answer(ad, &t, best);
    return pass(ad, &t);
}
