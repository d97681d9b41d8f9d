/* Lift the vote rows out of a JSON request body, with no Python object
 * per vote.
 *
 * Built into the native library by repro.inference.native; called by
 * repro.service.jobs.decode_job_json on every /v1/rank and /v1/batch
 * body and every `repro batch` job line.  One walk over the bytes skips
 * strings (a backslash escapes the byte after it) and, for every member
 * whose key bytes are exactly "votes" and whose value is an array of
 * rows of three JSON integers within int64, writes the integers to
 * rows and the value's byte span to spans.  Anything else is left to
 * Python's json module: a candidate that is not such an array is not
 * lifted, and the walk goes on after its key.
 *
 *   - integers follow JSON's grammar: -?(0|[1-9][0-9]*), with no
 *     fraction or exponent (the byte after one must be whitespace, a
 *     comma or a closing bracket);
 *   - whitespace is JSON's: space, tab, line feed, carriage return;
 *   - an N or I byte outside strings (NaN, Infinity) stops the walk
 *     with CONSTANT: the caller swaps each span for the token NaN and
 *     reads it back through json's parse_constant hook, so the body
 *     must hold no constant of its own.
 *
 * Two calls per body.  With rows == NULL the walk only counts: counts
 * gets [rows, spans].  The caller then allocates exactly that much and
 * calls again with counts as the capacities.  No byte at or past n is
 * read, no write goes past a capacity, and nothing is sized by the
 * input on the stack.
 */

#include <stdint.h>
#include <string.h>

/* Return codes of vote_rows_scan. */
#define SCANNED 0   /* counts (and on the second call rows, spans) hold the lift */
#define CONSTANT 1  /* an N or I byte outside strings: decode the body as it is */
#define MISMATCH 2  /* the second call found other counts than the first */

static int is_space(unsigned char byte)
{
    return byte == ' ' || byte == '\t' || byte == '\n' || byte == '\r';
}

static int64_t skip_space(const unsigned char *body, int64_t n, int64_t i)
{
    while (i < n && is_space(body[i]))
        i++;
    return i;
}

/* The JSON integer at body[i] into *value; returns the index after it,
 * or -1 when none starts there or it lies outside int64. */
static int64_t parse_integer(const unsigned char *body, int64_t n, int64_t i,
                             int64_t *value)
{
    uint64_t limit = INT64_MAX;
    uint64_t magnitude = 0;
    int negative = 0;

    if (i < n && body[i] == '-') {
        negative = 1;
        limit = (uint64_t)INT64_MAX + 1;
        i++;
    }
    if (i >= n || body[i] < '0' || body[i] > '9')
        return -1;
    if (body[i] == '0') {
        i++;
    } else {
        while (i < n && body[i] >= '0' && body[i] <= '9') {
            uint64_t digit = (uint64_t)(body[i] - '0');
            if (magnitude > (limit - digit) / 10)
                return -1;
            magnitude = magnitude * 10 + digit;
            i++;
        }
    }
    /* -(2^63) has no positive int64: negate magnitude - 1, then step. */
    *value = negative ? -(int64_t)(magnitude - 1) - 1 : (int64_t)magnitude;
    return i;
}

/* The rows array whose '[' is body[i]: returns the index after its
 * ']' with the row count in *count, or -1 when it is not an array of
 * [int, int, int] rows.  Row r's integers go to rows[3 * (first + r)]
 * onward while they fit under capacity (an array that turns out not
 * to qualify leaves garbage there, which the caller overwrites). */
static int64_t parse_rows(const unsigned char *body, int64_t n, int64_t i,
                          int64_t *rows, int64_t capacity, int64_t first,
                          int64_t *count)
{
    int64_t k = 0;

    i = skip_space(body, n, i + 1);
    if (i < n && body[i] == ']') {
        *count = 0;
        return i + 1;
    }
    for (;;) {
        if (i >= n || body[i] != '[')
            return -1;
        for (int column = 0; column < 3; column++) {
            int64_t value;
            int64_t slot = 3 * (first + k) + column;
            i = parse_integer(body, n, skip_space(body, n, i + 1), &value);
            if (i < 0)
                return -1;
            i = skip_space(body, n, i);
            if (i >= n || body[i] != (column < 2 ? ',' : ']'))
                return -1;
            if (rows != NULL && slot < capacity)
                rows[slot] = value;
        }
        k++;
        i = skip_space(body, n, i + 1);
        if (i >= n)
            return -1;
        if (body[i] == ']')
            break;
        if (body[i] != ',')
            return -1;
        i = skip_space(body, n, i + 1);
    }
    *count = k;
    return i + 1;
}

/*
 * body: n bytes.  rows: NULL to count, else 3 * counts[0] int64, the
 * lifted rows of every span in document order.  spans: 3 * counts[1]
 * int64, [start, end, rows] per lifted value (end exclusive).
 * counts: [rows, spans]; out, and on the second call also in.
 */
int64_t vote_rows_scan(const unsigned char *body, int64_t n, int64_t *rows,
                       int64_t *spans, int64_t *counts)
{
    int64_t row_capacity = rows != NULL ? 3 * counts[0] : 0;
    int64_t span_capacity = rows != NULL ? counts[1] : 0;
    int64_t lifted_rows = 0;
    int64_t lifted_spans = 0;
    int64_t i = 0;

    while (i < n) {
        unsigned char byte = body[i];
        int64_t key, value, end, count;

        if (byte == 'N' || byte == 'I')
            return CONSTANT;
        if (byte != '"') {
            i++;
            continue;
        }
        key = ++i;
        while (i < n && body[i] != '"')
            i += body[i] == '\\' ? 2 : 1;
        if (i >= n)
            break; /* unterminated: json reports it */
        i++;
        if (i - 1 - key != 5 || memcmp(body + key, "votes", 5) != 0)
            continue;
        value = skip_space(body, n, i);
        if (value >= n || body[value] != ':')
            continue;
        value = skip_space(body, n, value + 1);
        if (value >= n || body[value] != '[')
            continue;
        end = parse_rows(body, n, value, rows, row_capacity, lifted_rows,
                         &count);
        if (end < 0)
            continue; /* the walk resumes after the key */
        if (rows != NULL && lifted_spans < span_capacity) {
            spans[3 * lifted_spans] = value;
            spans[3 * lifted_spans + 1] = end;
            spans[3 * lifted_spans + 2] = count;
        }
        lifted_rows += count;
        lifted_spans++;
        i = end;
    }
    if (rows != NULL
            && (lifted_rows != counts[0] || lifted_spans != counts[1]))
        return MISMATCH;
    counts[0] = lifted_rows;
    counts[1] = lifted_spans;
    return SCANNED;
}
