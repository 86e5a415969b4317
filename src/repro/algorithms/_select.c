/*
 * Algorithm 3's candidate search: the lazy heap walk and the coverage
 * pass it falls back to, one call per ad whose kept answer is stale,
 * and the cross-ad choice of a SELECT step, one repro_select_step call
 * per step (AllocationSession._choose).
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
 *
 * Kept answers (CELF's lazy evaluation, Leskovec et al., KDD 2007).
 * An answer is a function of the ad's own state (coverage, theta,
 * revenue, seed count) and of which nodes are eligible for it.  The
 * own state changes only with the ad's own pick or a GROW, and the
 * session marks the ad stale then.  Another ad's pick of a node u only
 * makes u ineligible (kappa = 1) or leaves it eligible.  So each call
 * records what its answer depends on, and repro_select_step asks an ad
 * again only when the picked node is one of them:
 *
 *   node     the winner;
 *   top      the top eligible entry: with nothing that lowers regret
 *            it alone decides "no answer" against "retire";
 *   fit      the first fit: it closes the fold and bounds it;
 *   fragile  two distinct drops of the fold (the overshooting nodes
 *            ahead of the first fit that lower regret, and the first
 *            fit itself) lie within 2e-12.  Then every eligible node at
 *            or ahead of the first fit (every eligible node, with no
 *            first fit) is a dependency too.
 *
 * Why a kept answer is exact.  Without fragility any two distinct
 * drops of the fold differ by more than 2e-12, so every _beats
 * comparison in it is an exact comparison: the fold returns the first
 * node of the largest drop, and the first fit wins iff its drop is at
 * least that large.  Removing a node that is neither the winner, the
 * top nor the first fit leaves the first fit, the top and the largest
 * drop where they were (it leaves "some node lowers regret" alone too:
 * that question is asked over all nodes, eligible or not), so the
 * answer stands.  With fragility the 1e-12 band can chain (a ~ b,
 * b ~ c, a < c), and removing any folded node may move the winner.
 * Nodes behind the first fit are never read, and removing nodes keeps
 * a fold without fragility without it.
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
    /* The ad's revenue R, seed count k and theta, written by the
     * session before it asks. */
    double revenue;
    int64_t num_seeds, theta;
    /* 0 once the ad is retired; 1 while its kept answer must be
     * recomputed before it is read. */
    int64_t active, stale;
    /* The kept answer: the candidate node / cov / marginal / drop, or
     * node = -1 for none. */
    int64_t node, cov;
    double marginal, drop;
    /* What the kept answer depends on besides node (the header): -1
     * where there is none. */
    int64_t top, fit, fragile;
    /* Running totals, read by the tests: calls, fresh-entry searches
     * (one per walked entry, plus one that may find the heap empty) and
     * passes. */
    int64_t calls, pops, passes;
} repro_select_t;

/* One SELECT step over every ad, mirrored by
 * repro.algorithms.session._StepTable. */
typedef struct {
    repro_select_t **ads;
    int64_t count;
    int64_t limit;   /* fresh entries a walk takes before the pass */
    int64_t chosen;  /* the ad whose answer the last step picked */
    int64_t retired; /* running total of ads retired by the steps */
} repro_step_t;

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

static inline double score_of(const repro_select_t *ad, int64_t node)
{
    double cov = (double)ad->coverage[node];
    return ad->weighted ? ad->ctps[node] * cov : cov;
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

static int by_value(const void *a, const void *b)
{
    double x = ((const entry_t *)a)->value, y = ((const entry_t *)b)->value;
    return (x > y) - (x < y);
}

/* 1 iff two distinct values of entries[0 .. count) lie within 2e-12,
 * where the 1e-12 band of _beats can chain; sorts the entries by value. */
static int chained(entry_t *entries, int64_t count)
{
    qsort(entries, (size_t)count, sizeof *entries, by_value);
    for (int64_t i = 1; i < count; i++) {
        double low = entries[i - 1].value, high = entries[i].value;
        if (low != high && high - low <= 2e-12)
            return 1;
    }
    return 0;
}

/* The weighted scan from its first entry, computed from the coverage
 * vector instead of walked: the first eligible node that fits in heap
 * order, and the _beats fold over the eligible nodes ahead of it that
 * lower regret.  Retires the ad when no node is eligible, or when the
 * top one overshoots and no node at all lowers regret.  Records the
 * answer's dependencies. */
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
    ad->top = top;
    if (top < 0 || !any_lowers) {
        free(over);
        if (top < 0)
            return RETIRE;
        return top_fits ? NO_ANSWER : RETIRE;
    }
    ad->fit = first_fit;
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
    if (first_fit >= 0) {
        double drop = drop_of(
            ad, t, marginal_of(ad, t, first_fit, coverage[first_fit]));
        if (drop > 1e-12) {
            if (beats(drop, 1, best_drop, 0))
                winner = first_fit;
            /* A free slot: the first fit is eligible and not in over. */
            over[ahead++].value = drop;
        }
    }
    ad->fragile = chained(over, ahead);
    free(over);
    return winner < 0 ? NO_ANSWER : answer(ad, t, winner);
}

/* Whether the drops of the walk's parked entries [end - scanned, end)
 * that lower regret chain (chained); 1, which is never wrong, when
 * there is no memory to tell. */
static int walk_chained(const repro_select_t *ad, const terms_t *t,
                        int64_t end, int64_t scanned)
{
    entry_t *drops = malloc((size_t)scanned * sizeof *drops);
    int64_t count = 0;
    int result;
    if (drops == NULL)
        return 1;
    for (int64_t slot = end - scanned; slot < end; slot++) {
        int64_t node = ad->nodes[slot];
        double drop = drop_of(
            ad, t, marginal_of(ad, t, node, ad->coverage[node]));
        if (drop > 1e-12)
            drops[count++].value = drop;
    }
    result = chained(drops, count);
    free(drops);
    return result;
}

/* The argmax-drop candidate of one ad with revenue R and k seeds over
 * theta sets: walks at most `limit` fresh heap entries (one under the
 * coverage rule), then answers by the pass if the walk did not settle
 * the scan.  No answer while R has reached the budget. */
static int ask(repro_select_t *ad, int64_t limit)
{
    terms_t t;
    int64_t end = ad->size, scanned = 0, best = -1, fit = -1;
    double best_drop = 0.0;
    int literal = !ad->weighted, answered = 0;

    t.revenue = ad->revenue;
    t.remaining = ad->budget - ad->revenue;
    t.before = fabs(ad->budget - ad->revenue)
        + ad->penalty * (double)ad->num_seeds;
    t.n = (double)ad->n;
    t.theta = (double)ad->theta;
    t.after_seeds = (double)(ad->num_seeds + 1);
    if (t.remaining <= 0.0)
        return NO_ANSWER;

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
        if (scanned == 1)
            ad->top = node;
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
            fit = fits && !literal ? node : -1;
            break;
        }
    }
    if (answered) {
        /* Under the coverage rule the answer is the top's alone: no
         * fit, no fold. */
        ad->fit = fit;
        ad->fragile = best >= 0 && scanned > 1
            && walk_chained(ad, &t, end, scanned);
    }
    /* Lowest parked slot first: each push writes at or below the slot
     * it reads, and above every slot still to be read. */
    for (int64_t i = scanned; i > 0; i--)
        push(ad, ad->keys[end - i], ad->nodes[end - i]);
    if (answered)
        return best < 0 ? NO_ANSWER : answer(ad, &t, best);
    return pass(ad, &t);
}

/*
 * Ask one ad afresh: its answer and dependencies replace the kept ones.
 * Returns ANSWER (the candidate is in node / cov / marginal / drop),
 * NO_ANSWER, RETIRE (no answer, and the ad can never have one: it is
 * no longer active), or NO_MEMORY (the ad stays stale).  The heap is
 * left a valid lazy heap.
 */
int64_t repro_select(repro_select_t *ad, int64_t limit)
{
    int code;
    ad->calls++;
    ad->node = ad->top = ad->fit = -1;
    ad->fragile = 0;
    code = ask(ad, limit);
    if (code == NO_MEMORY)
        return NO_MEMORY;
    ad->stale = 0;
    if (code == RETIRE)
        ad->active = 0;
    return code;
}

/* 1 iff the ad's kept answer may change once `node` is no longer
 * eligible for it (the header's dependencies). */
int64_t repro_select_depends(const repro_select_t *ad, int64_t node)
{
    double score, fit_score;
    if (node == ad->node || node == ad->top || node == ad->fit)
        return 1;
    if (!ad->fragile)
        return 0;
    if (ad->fit < 0)
        return 1;
    score = score_of(ad, node);
    fit_score = score_of(ad, ad->fit);
    return score > fit_score || (score == fit_score && node < ad->fit);
}

/*
 * One SELECT step: ask every active ad whose kept answer is stale, take
 * the cross-ad choice over the answers (AllocationSession's
 * order-independent rule: anchored at the largest drop, every answer
 * within 1e-12 of it is tied, and the tie breaks on the smaller node,
 * then the exactly larger drop, then the lower ad), and mark stale the
 * chosen ad and every ad whose answer depends on the chosen node.
 * Returns ANSWER (step->chosen names the ad, whose answer is the pick),
 * NO_ANSWER (no ad has a candidate: the run is done) or NO_MEMORY.
 */
int64_t repro_select_step(repro_step_t *step)
{
    repro_select_t **ads = step->ads;
    int64_t chosen = -1, node;
    double largest = 0.0, floor;

    for (int64_t a = 0; a < step->count; a++) {
        repro_select_t *ad = ads[a];
        if (!ad->active)
            continue;
        if (ad->stale) {
            int64_t code = repro_select(ad, step->limit);
            if (code == NO_MEMORY)
                return NO_MEMORY;
            if (code == RETIRE)
                step->retired++;
        }
        if (ad->active && ad->node >= 0
            && (chosen < 0 || ad->drop > largest)) {
            chosen = a;
            largest = ad->drop;
        }
    }
    if (chosen < 0) /* every answer's drop is above 1e-12 */
        return NO_ANSWER;
    floor = largest - 1e-12;
    chosen = -1;
    for (int64_t a = 0; a < step->count; a++) {
        const repro_select_t *ad = ads[a];
        if (!ad->active || ad->node < 0 || !(ad->drop >= floor))
            continue;
        if (chosen < 0 || ad->node < ads[chosen]->node
            || (ad->node == ads[chosen]->node
                && ad->drop > ads[chosen]->drop))
            chosen = a;
    }
    node = ads[chosen]->node;
    for (int64_t a = 0; a < step->count; a++) {
        repro_select_t *ad = ads[a];
        if (ad->active && !ad->stale
            && (a == chosen || repro_select_depends(ad, node)))
            ad->stale = 1;
    }
    step->chosen = chosen;
    return ANSWER;
}
