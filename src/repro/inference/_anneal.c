/* Step 4's simulated-annealing path search (Algorithms 2-3), one block
 * of iterations over pre-drawn uniforms.
 *
 * Built and loaded by repro.inference.native; called once per draw
 * block by repro.inference.saps._anneal_incremental.  The arithmetic
 * repeats the Python kernel it replaced (tests/oracles/saps.py)
 * operation for operation, so a fixed seed gives the same accepted
 * moves, ranking and cost bit for bit:
 *
 *   - move bounds are one double product truncated to int64;
 *   - a move is accepted when delta < 0.0 or u < exp(-delta / T);
 *   - a Reverse sums its flipped edges' diff left to right from 0.0;
 *   - the best path is replaced on a strict <;
 *   - T is cooled once per iteration, floored at 1e-300.
 *
 * Build with -ffp-contract=off and without -ffast-math: a fused
 * multiply-add or a reordered sum changes the last bits.
 *
 * Every n-sized buffer is the caller's (numpy arrays checked in
 * Python); nothing here is sized by n on the stack.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* Return codes of saps_anneal_block. */
#define BLOCK_DONE 0 /* every iteration of the block ran */
#define RESYNC 1     /* accepted % resync_every == 0: re-sum in Python */
#define DRIFTED 2    /* debug check: running cost != re-sum */

/* Draws per iteration: Rotate 3 + 1, Reverse 2 + 1, RandomSwap 2 + 1. */
#define DRAWS 10

static double path_sum(const double *cost, int64_t n, const int64_t *path)
{
    double total = 0.0;
    for (int64_t k = 0; k + 1 < n; k++)
        total += cost[path[k] * n + path[k + 1]];
    return total;
}

static void reverse_slice(int64_t *path, int64_t first, int64_t last)
{
    for (last--; first < last; first++, last--) {
        int64_t vertex = path[first];
        path[first] = path[last];
        path[last] = vertex;
    }
}

/*
 * Run moves counts[1] .. 3 * iterations - 1 of a block.  Move m is
 * iteration m / 3's Rotate, Reverse or RandomSwap (m % 3), reading
 * draws[DRAWS * (m / 3) ...].
 *
 * cost, diff: n x n row-major; diff[a][b] = cost[b][a] - cost[a][b].
 * path, best_path: permutations of 0 .. n-1, updated in place.
 * state: [running cost, best cost, temperature, re-sum on DRIFTED].
 * counts: [accepted moves, next move]; in and out.
 *
 * On RESYNC the move that hit the interval is complete except for the
 * re-sum and the best-path check, which the caller does before calling
 * again; counts[1] is the move after it.
 */
int64_t saps_anneal_block(const double *cost, const double *diff, int64_t n,
                          int64_t *path, int64_t *best_path,
                          const double *draws, int64_t iterations,
                          double cooling, int64_t resync_every,
                          int64_t debug, double *state, int64_t *counts)
{
    double current = state[0];
    double best = state[1];
    double temperature = state[2];
    int64_t accepted = counts[0];
    int64_t status = BLOCK_DONE;
    int64_t move;

    for (move = counts[1]; move < 3 * iterations; move++) {
        const double *u = draws + DRAWS * (move / 3);
        int64_t kind = move % 3;
        double delta;
        double draw;
        int64_t first, middle, last, i, j, a, b, e, m, p, q, s, t;

        if (kind == 0) {
            /* Rotate(first, middle, last): P[first:last] becomes
             * P[middle:last] + P[first:middle]. */
            first = (int64_t)(u[0] * (double)(n - 1));
            last = first + 2 + (int64_t)(u[1] * (double)(n - first - 1));
            middle = first + 1
                + (int64_t)(u[2] * (double)(last - first - 1));
            draw = u[3];
            a = path[first];
            b = path[middle - 1];
            m = path[middle];
            e = path[last - 1];
            delta = cost[e * n + a] - cost[b * n + m];
            if (first > 0) {
                p = path[first - 1];
                delta += cost[p * n + m] - cost[p * n + a];
            }
            if (last < n) {
                q = path[last];
                delta += cost[b * n + q] - cost[e * n + q];
            }
            if (!(delta < 0.0 || draw < exp(-delta / temperature)))
                goto next;
            reverse_slice(path, first, middle);
            reverse_slice(path, middle, last);
            reverse_slice(path, first, last);
        } else if (kind == 1) {
            /* Reverse(first, last): every internal edge flips. */
            first = (int64_t)(u[4] * (double)(n - 1));
            last = first + 2 + (int64_t)(u[5] * (double)(n - first - 1));
            draw = u[6];
            a = path[first];
            e = path[last - 1];
            delta = 0.0;
            for (int64_t k = first; k < last - 1; k++)
                delta += diff[path[k] * n + path[k + 1]];
            if (first > 0) {
                p = path[first - 1];
                delta += cost[p * n + e] - cost[p * n + a];
            }
            if (last < n) {
                q = path[last];
                delta += cost[a * n + q] - cost[e * n + q];
            }
            if (!(delta < 0.0 || draw < exp(-delta / temperature)))
                goto next;
            reverse_slice(path, first, last);
        } else {
            /* RandomSwap(i, j), i <= j: at most four edges change. */
            i = (int64_t)(u[7] * (double)n);
            j = (int64_t)(u[8] * (double)n);
            if (i > j) {
                int64_t swap = i;
                i = j;
                j = swap;
            }
            draw = u[9];
            delta = 0.0;
            if (i != j) {
                a = path[i];
                b = path[j];
                if (j == i + 1)
                    delta = cost[b * n + a] - cost[a * n + b];
                if (i > 0) {
                    p = path[i - 1];
                    delta += cost[p * n + b] - cost[p * n + a];
                }
                if (j > i + 1) {
                    s = path[i + 1];
                    delta += cost[b * n + s] - cost[a * n + s];
                    t = path[j - 1];
                    delta += cost[t * n + a] - cost[t * n + b];
                }
                if (j < n - 1) {
                    q = path[j + 1];
                    delta += cost[a * n + q] - cost[b * n + q];
                }
            }
            if (!(delta < 0.0 || draw < exp(-delta / temperature)))
                goto next;
            if (i != j) {
                a = path[i];
                path[i] = path[j];
                path[j] = a;
            }
        }

        current += delta;
        accepted += 1;
        if (debug) {
            double resummed = path_sum(cost, n, path);
            if (!(fabs(resummed - current)
                  <= 1e-9 * fmax(1.0, fabs(resummed)))) {
                state[3] = resummed;
                status = DRIFTED;
                move++;
                break;
            }
        }
        if (accepted % resync_every == 0) {
            /* The caller re-sums and checks the best path; cooling
             * first is the same, since neither reads T. */
            status = RESYNC;
        } else if (current < best) {
            best = current;
            memcpy(best_path, path, (size_t)n * sizeof *path);
        }
    next:
        if (kind == 2) {
            temperature *= cooling;
            if (temperature < 1e-300)
                temperature = 1e-300;
        }
        if (status == RESYNC) {
            move++;
            break;
        }
    }
    state[0] = current;
    state[1] = best;
    state[2] = temperature;
    counts[0] = accepted;
    counts[1] = move;
    return status;
}
