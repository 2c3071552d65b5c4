/* GF(256) byte kernel behind the "native" entry of repro.rq.kernels.
 *
 * One routine does all the work: addmul(dst, src, c, n) computes
 * dst ^= c * src over GF(256).  On x86-64 CPUs with AVX2 it uses the
 * split-nibble PSHUFB technique (Plank, Greenan and Miller, FAST'13):
 * c * x == c * (x & 0x0f) ^ c * (x & 0xf0), so two 16-entry tables per
 * coefficient turn 32 multiplications into two byte shuffles.  Every other
 * CPU, and the tail bytes, use a scalar row of the multiplication table.
 * The table itself comes from Python (repro.rq.gf256.MUL_TABLE) through
 * gf256_init, so the field is defined in exactly one place.
 *
 * Built lazily with "cc -O2 -shared -fPIC" and loaded with ctypes; see
 * repro/rq/kernels.py.  No -march flags: the AVX2 path is compiled with a
 * target attribute and chosen at run time.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GNUC__)
#define GF256_X86 1
/* GCC vector extensions plus the PSHUFB builtin give the same instructions
 * as <immintrin.h> without parsing it, which would triple the compiler's
 * peak memory (~33 -> ~96 MiB) and its run time. */
typedef char v32qi __attribute__((vector_size(32)));
typedef unsigned char u8x32 __attribute__((vector_size(32)));
#endif

static uint8_t MUL[256][256];
static uint8_t NIBBLE_LO[256][16];
static uint8_t NIBBLE_HI[256][16];

typedef void (*addmul_fn)(uint8_t *, const uint8_t *, uint8_t, size_t);

static void addmul_scalar(uint8_t *dst, const uint8_t *src, uint8_t c, size_t n) {
    const uint8_t *row = MUL[c];
    for (size_t i = 0; i < n; i++) dst[i] ^= row[src[i]];
}

#ifdef GF256_X86
__attribute__((target("avx2")))
static void addmul_avx2(uint8_t *dst, const uint8_t *src, uint8_t c, size_t n) {
    u8x32 lo, hi;
    memcpy(&lo, NIBBLE_LO[c], 16);
    memcpy((uint8_t *)&lo + 16, NIBBLE_LO[c], 16);
    memcpy(&hi, NIBBLE_HI[c], 16);
    memcpy((uint8_t *)&hi + 16, NIBBLE_HI[c], 16);
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        u8x32 s, d;
        memcpy(&s, src + i, 32);
        memcpy(&d, dst + i, 32);
        d ^= (u8x32)__builtin_ia32_pshufb256((v32qi)lo, (v32qi)(s & 0x0f))
           ^ (u8x32)__builtin_ia32_pshufb256((v32qi)hi, (v32qi)(s >> 4));
        memcpy(dst + i, &d, 32);
    }
    addmul_scalar(dst + i, src + i, c, n - i);
}
#endif

static addmul_fn addmul = addmul_scalar;

/* Copy the 256 x 256 table and build the nibble tables.  Returns 1 when the
 * AVX2 path is in use; allow_simd = 0 forces the scalar path (for tests). */
int gf256_init(const uint8_t *mul_table, int allow_simd) {
    memcpy(MUL, mul_table, sizeof MUL);
    for (int c = 0; c < 256; c++) {
        for (int x = 0; x < 16; x++) {
            NIBBLE_LO[c][x] = MUL[c][x];
            NIBBLE_HI[c][x] = MUL[c][x << 4];
        }
    }
    addmul = addmul_scalar;
#ifdef GF256_X86
    __builtin_cpu_init();
    if (allow_simd && __builtin_cpu_supports("avx2")) addmul = addmul_avx2;
#endif
    return addmul != addmul_scalar;
}

/* out (m x t, zeroed, contiguous) ^= a (m x n) . b (n x t); rows of a and b
 * are lda / ldb bytes apart.  Zero coefficients are skipped. */
void gf256_matmul(const uint8_t *a, ptrdiff_t lda, const uint8_t *b, ptrdiff_t ldb,
                  uint8_t *out, size_t m, size_t n, size_t t) {
    for (size_t i = 0; i < m; i++) {
        const uint8_t *coefficients = a + (ptrdiff_t)i * lda;
        uint8_t *row = out + i * t;
        for (size_t k = 0; k < n; k++) {
            if (coefficients[k]) addmul(row, b + (ptrdiff_t)k * ldb, coefficients[k], t);
        }
    }
}

/* work[targets[j]] ^= factors[j] * work[source] for j < count, in place;
 * work has rows rows, ld bytes apart and width bytes wide.  Returns -1, and
 * touches nothing, unless every target is a row other than source. */
int gf256_addmul_rows(uint8_t *work, size_t rows, ptrdiff_t ld, size_t width, size_t source,
                      const intptr_t *targets, const uint8_t *factors, size_t count) {
    if (source >= rows) return -1;
    for (size_t j = 0; j < count; j++) {
        if (targets[j] < 0 || (size_t)targets[j] >= rows || (size_t)targets[j] == source) return -1;
    }
    const uint8_t *src = work + (ptrdiff_t)source * ld;
    for (size_t j = 0; j < count; j++) {
        if (factors[j]) addmul(work + targets[j] * ld, src, factors[j], width);
    }
    return 0;
}
