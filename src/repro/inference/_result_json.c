/* The direct_preferences member of a result's canonical JSON, written
 * in one pass.
 *
 * Built into the native library by repro.inference.native; called by
 * repro.io's result encoder on every result it encodes.  The output is
 * byte for byte what json.dumps(..., sort_keys=True) writes for the
 * dict {"i,j": value}:
 *
 *   - members in sort_keys order, the byte order of the "i,j" keys
 *     (lex_key below), separated by ", " with ": " after each key;
 *   - each value as float.__repr__ writes it: the shortest decimal that
 *     reads back to the same double, the nearest such on a tie of
 *     lengths, round-half-even on a tie of distances (Schubfach below);
 *     fixed notation when -4 < decpt <= 16, else d.ddde+XX with at
 *     least two exponent digits; ".0" after an integral value;
 *   - NaN, Infinity and -Infinity spelled as json.dumps spells them.
 *
 * The power-of-ten table g is the caller's: 128-bit
 * floor(10^e * 2^(127 - floor(log2 10^e))) + 1 for e in
 * [POW10_MIN, POW10_MAX], computed in exact integer arithmetic by
 * repro.inference.native.  Every buffer is the caller's (numpy arrays
 * checked in Python) and out holds 72 bytes per member plus two (a
 * member takes at most 71: a quote, two 20-byte ids and the comma
 * between them, a quote, ": ", a 24-byte value, ", "); nothing here
 * allocates.  The 128-bit products need unsigned __int128 (GCC and
 * Clang on 64-bit targets).
 */

#include <stdint.h>
#include <string.h>

/* The table's exponent range: -k over every double's k below. */
#define POW10_MIN (-292)
#define POW10_MAX 324

/* floor(g * cp / 2^128) for g's [high, low] words, its last bit set
 * when the exact product with 10^e in place of g is not an integer
 * (round to odd). */
static uint64_t round_to_odd(const uint64_t *g, uint64_t cp)
{
    uint64_t x_hi = (uint64_t)(((unsigned __int128)g[1] * cp) >> 64);
    unsigned __int128 y = (unsigned __int128)g[0] * cp;
    uint64_t z = (uint64_t)y + x_hi;

    return ((uint64_t)(y >> 64) + (z < (uint64_t)y)) | (z > 1);
}

/* The shortest decimal digits * 10^exponent that reads back to the
 * finite positive double of (biased exponent, mantissa) bits; Giulietti's
 * Schubfach, with a 128-bit g. */
static uint64_t shortest(const uint64_t *table, uint64_t mantissa,
                         int32_t biased, int32_t *exponent)
{
    uint64_t c, cb, cbl, cbr, vb, vbl, vbr, lower, upper, s;
    int32_t q, k, h, closer;
    int even;

    if (biased != 0) {
        c = mantissa | ((uint64_t)1 << 52);
        q = biased - 1075;
        if (q <= 0 && q > -53 && (c & (((uint64_t)1 << -q) - 1)) == 0) {
            *exponent = 0;
            return c >> -q; /* an integer below 2^53 */
        }
    } else {
        c = mantissa;
        q = -1074;
    }
    even = (c & 1) == 0;
    closer = mantissa == 0 && biased > 1;
    cb = c << 2;
    cbl = cb - 2 + (uint64_t)closer;
    cbr = cb + 2;
    /* floor(log10(2^q)), or floor(log10(3/4 * 2^q)) when the lower
     * neighbour is closer; arithmetic shifts divide by 2^22 rounding
     * down. */
    k = (q * 1262611 - (closer ? 524031 : 0)) >> 22;
    /* q + floor(log2(10^-k)) + 1, in [1, 4]. */
    h = q + ((-k * 1741647) >> 19) + 1;
    table += 2 * (-k - POW10_MIN);
    vbl = round_to_odd(table, cbl << h);
    vb = round_to_odd(table, cb << h);
    vbr = round_to_odd(table, cbr << h);
    lower = vbl + !even;
    upper = vbr - !even;
    s = vb >> 2;
    if (s >= 10) {
        /* At most one multiple of 10^(k+1) lies in the interval. */
        uint64_t sp = s / 10;
        int up_inside = lower <= 40 * sp;
        int wp_inside = 40 * sp + 40 <= upper;
        if (up_inside != wp_inside) {
            *exponent = k + 1;
            return sp + (uint64_t)wp_inside;
        }
    }
    {
        int u_inside = lower <= 4 * s;
        int w_inside = 4 * s + 4 <= upper;
        uint64_t mid = 4 * s + 2;
        *exponent = k;
        if (u_inside != w_inside)
            return s + (uint64_t)w_inside;
        return s + (uint64_t)(vb > mid || (vb == mid && (s & 1) != 0));
    }
}

static const uint64_t POW10[20] = {
    1u, 10u, 100u, 1000u, 10000u, 100000u, 1000000u, 10000000u,
    100000000u, 1000000000u, 10000000000u, 100000000000u,
    1000000000000u, 10000000000000u, 100000000000000u,
    1000000000000000u, 10000000000000000u, 100000000000000000u,
    1000000000000000000u, 10000000000000000000u,
};

/* The number of decimal digits of value, 1 to 20. */
static int digit_count(uint64_t value)
{
    int count = 1;

    while (count < 20 && value >= POW10[count])
        count++;
    return count;
}

/* "00" to "99". */
static const char PAIRS[201] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The decimal digits of value into out; returns their count.  Eight
 * digits at a time in 32-bit arithmetic, two per step. */
static int write_digits(uint64_t value, char *out)
{
    char buffer[20];
    char *first = buffer + sizeof buffer;
    uint32_t rest;

    for (; value >= 100000000; value /= 100000000) {
        rest = (uint32_t)(value % 100000000);
        for (int i = 0; i < 4; i++, rest /= 100) {
            first -= 2;
            memcpy(first, PAIRS + 2 * (rest % 100), 2);
        }
    }
    for (rest = (uint32_t)value; rest >= 100; rest /= 100) {
        first -= 2;
        memcpy(first, PAIRS + 2 * (rest % 100), 2);
    }
    if (rest >= 10) {
        first -= 2;
        memcpy(first, PAIRS + 2 * rest, 2);
    } else {
        *--first = (char)('0' + rest);
    }
    memcpy(out, first, (size_t)(buffer + sizeof buffer - first));
    return (int)(buffer + sizeof buffer - first);
}

/* value as float.__repr__ (finite) or json.dumps (not) writes it;
 * returns the bytes written, at most 24. */
static int write_double(const uint64_t *table, double value, char *out)
{
    uint64_t bits, mantissa, significand;
    int32_t biased, exponent;
    char digits[20];
    int count, decpt, length = 0;

    memcpy(&bits, &value, sizeof bits);
    mantissa = bits & (((uint64_t)1 << 52) - 1);
    biased = (int32_t)((bits >> 52) & 0x7ff);
    if (biased == 0x7ff) {
        const char *word = mantissa != 0 ? "NaN"
            : (bits >> 63) ? "-Infinity" : "Infinity";
        length = (int)strlen(word);
        memcpy(out, word, (size_t)length);
        return length;
    }
    if (bits >> 63)
        out[length++] = '-';
    if (biased == 0 && mantissa == 0) {
        memcpy(out + length, "0.0", 3);
        return length + 3;
    }
    significand = shortest(table, mantissa, biased, &exponent);
    while (significand % 10 == 0) {
        significand /= 10;
        exponent++;
    }
    count = write_digits(significand, digits);
    decpt = count + exponent; /* value = 0.digits * 10^decpt */
    if (decpt > -4 && decpt <= 16) {
        if (decpt <= 0) {
            memcpy(out + length, "0.", 2);
            length += 2;
            memset(out + length, '0', (size_t)-decpt);
            length += -decpt;
            memcpy(out + length, digits, (size_t)count);
            length += count;
        } else if (decpt < count) {
            memcpy(out + length, digits, (size_t)decpt);
            length += decpt;
            out[length++] = '.';
            memcpy(out + length, digits + decpt, (size_t)(count - decpt));
            length += count - decpt;
        } else {
            memcpy(out + length, digits, (size_t)count);
            length += count;
            memset(out + length, '0', (size_t)(decpt - count));
            length += decpt - count;
            memcpy(out + length, ".0", 2);
            length += 2;
        }
        return length;
    }
    out[length++] = digits[0];
    if (count > 1) {
        out[length++] = '.';
        memcpy(out + length, digits + 1, (size_t)(count - 1));
        length += count - 1;
    }
    out[length++] = 'e';
    out[length++] = decpt - 1 < 0 ? '-' : '+';
    decpt = decpt - 1 < 0 ? 1 - decpt : decpt - 1;
    if (decpt < 10)
        out[length++] = '0';
    return length + write_digits((uint64_t)decpt, out + length);
}

/* The decimal digits of id (with its sign) into out; returns the
 * bytes written, at most 20. */
static int write_id(int64_t id, char *out)
{
    if (id < 0) {
        out[0] = '-';
        return 1 + write_digits((uint64_t)0 - (uint64_t)id, out + 1);
    }
    return write_digits((uint64_t)id, out);
}

/* An id's place in the byte order of its decimal string followed by a
 * comma or a quote, both below '0': a '-' sorts first, then the digits
 * left-aligned to 19 places, then the shorter string (the prefix). */
struct lex_key {
    uint64_t aligned;
    int32_t negative;
    int32_t count;
};

static struct lex_key lex_key(int64_t id)
{
    struct lex_key key;
    uint64_t magnitude = id < 0 ? (uint64_t)0 - (uint64_t)id : (uint64_t)id;
    int count = digit_count(magnitude);

    key.aligned = magnitude * POW10[19 - count];
    key.negative = id < 0;
    key.count = count;
    return key;
}

/* -1, 0 or 1 as a sorts before, with or after b. */
static int compare_keys(struct lex_key a, struct lex_key b)
{
    if (a.negative != b.negative)
        return a.negative ? -1 : 1;
    if (a.aligned != b.aligned)
        return a.aligned < b.aligned ? -1 : 1;
    return (a.count > b.count) - (a.count < b.count);
}

/* Whether member b sorts before member a. */
static int before(const struct lex_key *keys, int64_t b, int64_t a)
{
    int order = compare_keys(keys[2 * b], keys[2 * a]);
    if (order == 0)
        order = compare_keys(keys[2 * b + 1], keys[2 * a + 1]);
    return order < 0;
}

/*
 * lo, hi, values: n each, member r is "lo[r],hi[r]": values[r].
 * table: 2 * (POW10_MAX - POW10_MIN + 1) uint64, [high, low] words of
 *   g per exponent from POW10_MIN.
 * keys: 2 * n lex_key, order: 2 * n int64, scratch.
 * out: 72 * n + 2 bytes.
 * Returns the bytes written.
 */
int64_t direct_preferences_json(const int64_t *lo, const int64_t *hi,
                                const double *values, int64_t n,
                                const uint64_t *table, struct lex_key *keys,
                                int64_t *order, char *out)
{
    int64_t *from = order, *to = order + n;
    int64_t length = 0;

    for (int64_t r = 0; r < n; r++) {
        keys[2 * r] = lex_key(lo[r]);
        keys[2 * r + 1] = lex_key(hi[r]);
        from[r] = r;
    }
    /* Bottom-up merge sort: stable, so equal keys keep row order. */
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t left = 0; left < n; left += 2 * width) {
            int64_t middle = left + width < n ? left + width : n;
            int64_t right = left + 2 * width < n ? left + 2 * width : n;
            int64_t i = left, j = middle, k = left;
            while (i < middle && j < right)
                to[k++] = before(keys, from[j], from[i]) ? from[j++]
                    : from[i++];
            while (i < middle)
                to[k++] = from[i++];
            while (j < right)
                to[k++] = from[j++];
        }
        int64_t *swap = from;
        from = to;
        to = swap;
    }
    out[length++] = '{';
    for (int64_t m = 0; m < n; m++) {
        int64_t r = from[m];
        if (m > 0) {
            out[length++] = ',';
            out[length++] = ' ';
        }
        out[length++] = '"';
        length += write_id(lo[r], out + length);
        out[length++] = ',';
        length += write_id(hi[r], out + length);
        out[length++] = '"';
        out[length++] = ':';
        out[length++] = ' ';
        length += write_double(table, values[r], out + length);
    }
    out[length++] = '}';
    return length;
}
