/* Step 1's CRH truth discovery (Sec. V-A, Eq. 4-5): the whole
 * iteration loop in one call.
 *
 * Built into the native library by repro.inference.native; called once
 * per discover_truth by repro.truth.crh.  The arithmetic repeats the
 * numpy loop it replaced (tests/oracles/crh.py) operation for
 * operation, so the truth, the weights and every delta agree bit for
 * bit:
 *
 *   - per-pair and per-worker sums run in vote order from 0.0, as
 *     np.bincount accumulates them: the votes are grouped by pair and by
 *     worker once, keeping vote order within each group, so each sum
 *     runs in a register;
 *   - np.maximum's floor keeps a NaN (only a value below the floor is
 *     raised to it);
 *   - each delta is numpy's pairwise sum (pairwise_sum below) divided
 *     by the length, as np.mean takes it;
 *   - a NaN anywhere in a max makes the max NaN, as np.max does.
 *
 * Build with -ffp-contract=off and without -ffast-math: a fused
 * multiply-add or a reordered sum changes the last bits.
 *
 * Every buffer is the caller's (numpy arrays checked in Python, every
 * pair and worker index in range); nothing here allocates.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* numpy's pairwise summation block (PW_BLOCKSIZE). */
#define BLOCK 128

/* |a[i] - b[i]| summed over i < n the way numpy's pairwise_sum_DOUBLE
 * sums a contiguous array: a plain loop below 8 elements, eight
 * interleaved accumulators up to BLOCK, and halves split at a multiple
 * of 8 above that. */
static double pairwise_sum(const double *a, const double *b, int64_t n)
{
    if (n < 8) {
        double total = 0.0;
        for (int64_t i = 0; i < n; i++)
            total += fabs(a[i] - b[i]);
        return total;
    }
    if (n <= BLOCK) {
        double r[8], total;
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = fabs(a[j] - b[j]);
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += fabs(a[i + j] - b[i + j]);
        total = ((r[0] + r[1]) + (r[2] + r[3]))
            + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            total += fabs(a[i] - b[i]);
        return total;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, b, half)
        + pairwise_sum(a + half, b + half, n - half);
}

/* The mean |a[i] - b[i]|, as np.mean(np.abs(a - b)). */
static double delta(const double *a, const double *b, int64_t n)
{
    return pairwise_sum(a, b, n) / (double)n;
}

/* np.maximum(value, floor) for a finite floor. */
static double floored(double value, double floor)
{
    return value < floor ? floor : value;
}

/* Group the votes by key (their pair or their worker), in vote order
 * within each group: start gets the n_keys + 1 group offsets, and
 * grouped_other and grouped_value the votes' other index and value. */
static void group_votes(const int64_t *key, const int64_t *other,
                        const double *value, int64_t n_votes, int64_t n_keys,
                        int64_t *start, int64_t *grouped_other,
                        double *grouped_value)
{
    memset(start, 0, (size_t)(n_keys + 1) * sizeof *start);
    for (int64_t v = 0; v < n_votes; v++)
        start[key[v] + 1]++;
    for (int64_t k = 0; k < n_keys; k++)
        start[k + 1] += start[k];
    for (int64_t v = 0; v < n_votes; v++) {
        int64_t slot = start[key[v]]++;
        grouped_other[slot] = other[v];
        grouped_value[slot] = value[v];
    }
    /* start[k] has moved to the end of group k, the start of k + 1. */
    memmove(start + 1, start, (size_t)n_keys * sizeof *start);
    start[0] = 0;
}

/*
 * pair_idx, worker_idx, value: n_votes each; every pair index in
 * [0, n_pairs) and worker index in [0, n_workers).
 * chi2_scale: n_workers, Eq. 5's per-worker numerator.
 * truth (n_pairs), quality (n_workers): the starting state in, the
 * last iteration's out.
 * deltas: 2 * max_iterations, [pref_delta, qual_delta] per iteration.
 * index_scratch: n_pairs + n_workers + 2 + 2 * n_votes int64.
 * value_scratch: n_pairs + n_workers + 2 * n_votes doubles.
 * counts: out, [iterations, converged].
 */
void crh_iterate(const int64_t *pair_idx, const int64_t *worker_idx,
                 const double *value, int64_t n_votes, int64_t n_pairs,
                 int64_t n_workers, const double *chi2_scale,
                 double min_error, double tolerance, int64_t max_iterations,
                 double *truth, double *quality,
                 double *deltas, int64_t *index_scratch,
                 double *value_scratch, int64_t *counts)
{
    int64_t *pair_start = index_scratch;
    int64_t *worker_start = pair_start + n_pairs + 1;
    int64_t *pair_worker = worker_start + n_workers + 1;
    int64_t *worker_pair = pair_worker + n_votes;
    double *pair_value = value_scratch;
    double *worker_value = pair_value + n_votes;
    double *new_truth = worker_value + n_votes;
    double *new_quality = new_truth + n_pairs;
    int64_t iteration = 0;
    int64_t converged = 0;

    group_votes(pair_idx, worker_idx, value, n_votes, n_pairs, pair_start,
                pair_worker, pair_value);
    group_votes(worker_idx, pair_idx, value, n_votes, n_workers,
                worker_start, worker_pair, worker_value);
    while (iteration < max_iterations) {
        double top, pref_delta, qual_delta;

        /* Eq. 4: weighted average of votes per pair. */
        for (int64_t p = 0; p < n_pairs; p++) {
            double numer = 0.0, denom = 0.0;
            for (int64_t k = pair_start[p]; k < pair_start[p + 1]; k++) {
                double weight = quality[pair_worker[k]];
                numer += weight * pair_value[k];
                denom += weight;
            }
            new_truth[p] = numer / floored(denom, 1e-300);
        }

        /* Eq. 5: quality inversely proportional to squared
         * disagreement, rescaled by its max. */
        for (int64_t w = 0; w < n_workers; w++) {
            double err = 0.0;
            for (int64_t k = worker_start[w]; k < worker_start[w + 1]; k++) {
                double miss = worker_value[k] - new_truth[worker_pair[k]];
                err += miss * miss;
            }
            new_quality[w] = chi2_scale[w] / floored(err, min_error);
        }
        top = new_quality[0];
        for (int64_t w = 1; w < n_workers && !isnan(top); w++)
            if (new_quality[w] > top || isnan(new_quality[w]))
                top = new_quality[w];
        for (int64_t w = 0; w < n_workers; w++)
            new_quality[w] = new_quality[w] / top;

        pref_delta = delta(new_truth, truth, n_pairs);
        qual_delta = delta(new_quality, quality, n_workers);
        memcpy(truth, new_truth, (size_t)n_pairs * sizeof *truth);
        memcpy(quality, new_quality, (size_t)n_workers * sizeof *quality);
        deltas[2 * iteration] = pref_delta;
        deltas[2 * iteration + 1] = qual_delta;
        iteration++;
        if (pref_delta < tolerance && qual_delta < tolerance) {
            converged = 1;
            break;
        }
    }
    counts[0] = iteration;
    counts[1] = converged;
}
