/* Stage-3 tile kernel of repro.gaussians.rasterize (see there), via ctypes.
 * Each FP64 expression keeps its NumPy counterpart's operation order and
 * the build has -ffp-contract=off, so results are bit-identical to the
 * oracle.  The constants arrive from Python as exact hex-float -D flags.
 *   ints: kept rows (n) | fragments evaluated at termination, blended
 *   work: colour (P, 3) | T (P) | powers (rows, P) | their exp (rows, P) */
#include <math.h>
#include <stdint.h>

typedef int64_t i64;

static double clip(double x, double lo, double hi) { return x < lo ? lo : (x > hi ? hi : x); }

static void pixel_box(i64 P, const double *px, double box[4])
{
    box[0] = box[2] = INFINITY, box[1] = box[3] = -INFINITY;
    for (i64 i = 0; i < 2 * P; i++) {
        double *lo = box + 2 * (i % 2), *hi = lo + 1;
        *lo = px[i] < *lo ? px[i] : *lo, *hi = px[i] > *hi ? px[i] : *hi;
    }
}

/* alpha_upper_bound of one splat (derivation there).  det_lo leaves room for
 * the rounding of ac - b*b (below 4.01 u ac); box spans the pixels' deltas. */
static double bound(const double *m, const double *k, double o, const double *box)
{
    double a = k[0], b = k[1], c = k[2], ac = a * c, qmin = 0.0;
    double det_lo = (ac - b * b) - 8 * UNIT_ROUNDOFF * ac;
    if (!(isfinite(a) && isfinite(b) && isfinite(c) && isfinite(m[0]) && isfinite(m[1])
          && isfinite(o) && a > 0.0 && c > 0.0 && det_lo > 0.0))
        return INFINITY;
    double xl = box[0] - m[0], xh = box[1] - m[0], yl = box[2] - m[1], yh = box[3] - m[1];
    if (!(xl <= 0.0 && xh >= 0.0 && yl <= 0.0 && yh >= 0.0)) {
        /* Edges x = const minimise at dy = -b dx / c, y = const at dx = -b dy / a. */
        double dx[4] = {xl, xh, clip(-(b * yl) / a, xl, xh), clip(-(b * yh) / a, xl, xh)};
        double dy[4] = {clip(-(b * xl) / c, yl, yh), clip(-(b * xh) / c, yl, yh), yl, yh};
        qmin = INFINITY;
        for (int e = 0; e < 4; e++) {
            double q = (a * (dx[e] * dx[e]) + c * (dy[e] * dy[e])) + 2.0 * ((b * dx[e]) * dy[e]);
            if (isnan(q))
                return INFINITY;
            qmin = q < qmin ? q : qmin;
        }
    }
    double qsafe = qmin * (1.0 - QMIN_MARGIN * (4.0 * ac / det_lo));
    double alpha = o * exp(-0.5 * (qsafe < 0.0 ? 0.0 : qsafe)) * BOUND_SLACK;
    return isnan(alpha) ? INFINITY : alpha;
}

void alpha_bounds(i64 n, const double *means, const double *conics, const double *opac,
                  i64 P, const double *px, double *out)
{
    double box[4];
    pixel_box(P, px, box);
    for (i64 i = 0; i < n; i++)
        out[i] = bound(means + 2 * i, conics + 3 * i, opac[i], box);
}

/* gaussian_alpha_block's power of `rows` kept rows at the P pixels. */
static void powers(i64 rows, const i64 *kept, const i64 *idx, const double *means,
                   const double *conics, i64 P, const double *px, double *power)
{
    for (i64 r = 0; r < rows; r++) {
        const double *m = means + 2 * idx[kept[r]], *k = conics + 3 * idx[kept[r]];
        for (i64 p = 0; p < P; p++) {
            double dx = px[2 * p] - m[0], dy = px[2 * p + 1] - m[1];
            *power++ = -0.5 * (k[0] * (dx * dx) + k[2] * (dy * dy)) - (k[1] * dx) * dy;
        }
    }
}

#define TILE_ARGS i64 n, const i64 *idx, const double *means, const double *conics, \
    const double *opac, const double *colors, i64 P, const double *px, i64 *ints,    \
    double *work, i64 rows, double bg0, double bg1, double bg2

/* Keep the rows whose bound reaches the threshold; write the first round's
 * powers; return the number kept. */
i64 tile_cull(TILE_ARGS)
{
    double box[4], bg[3] = {bg0, bg1, bg2};
    i64 kept = 0;
    pixel_box(P, px, box);
    for (i64 i = 0; i < n; i++)
        if (bound(means + 2 * idx[i], conics + 3 * idx[i], opac[idx[i]], box)
            >= ALPHA_SKIP_THRESHOLD)
            ints[kept++] = i;
    for (i64 p = 0; p < 4 * P; p++)   /* with no row kept the tile is done */
        work[p] = p >= 3 * P ? 1.0 : kept ? 0.0 : bg[p % 3];
    ints[n] = ints[n + 1] = 0;
    powers(kept < rows ? kept : rows, ints, idx, means, conics, P, px, work + 4 * P);
    return kept;
}

/* Blend kept rows [start, start + rows) over the P pixels; return the
 * number still live, with the next round's powers written. */
i64 tile_blend(TILE_ARGS, i64 start, i64 kept, i64 L)
{
    double bg[3] = {bg0, bg1, bg2}, *color = work, *trans = work + 3 * P;
    const double *power = work + 4 * P, *ex = power + rows * P;
    i64 end = start + rows < kept ? start + rows : kept;
    for (i64 r = start; r < end && L; r++) {
        i64 g = idx[ints[r]];
        for (i64 p = 0; p < P; p++, power++, ex++) {
            double t = trans[p], alpha = *power > 0.0 ? 0.0 : opac[g] * *ex;
            alpha = alpha > ALPHA_MAX ? ALPHA_MAX : alpha;
            if (!(t >= TRANSMITTANCE_EPSILON && alpha >= ALPHA_SKIP_THRESHOLD))
                continue;
            for (int k = 0; k < 3; k++)
                color[3 * p + k] += (t * alpha) * colors[3 * g + k];
            trans[p] = t = t * (1.0 - alpha);
            ints[n + 1]++;
            if (!(t >= TRANSMITTANCE_EPSILON))
                ints[n] += ints[r] + 1, L--;
        }
    }
    if (L && end < kept)
        powers(kept - end < rows ? kept - end : rows, ints + end, idx, means, conics, P, px,
               work + 4 * P);
    else   /* the tile is done */
        for (i64 p = 0; p < 3 * P; p++)
            color[p] += trans[p / 3] * bg[p % 3];
    return L;
}
