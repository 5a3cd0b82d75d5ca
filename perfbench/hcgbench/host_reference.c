/* Fixed reference kernels for the host-speed index (perfbench/README.md).
 * They are compiled and loaded exactly like a generated model (gcc -O2,
 * -shared, dlopen) and sampled in the same rounds, but they are never
 * generated: no change to the program under test can change them.  The mix
 * follows the cells: per-actor scalar loops, an integer multiply-add, a
 * complex FFT and a generic matrix multiply.
 *
 *   ref_step(in, out): in[0] points to an int naming the kernel (0..3). */
#define N 1024
#define M 48

static float x[N], w[N], t[N], d[N], m[N], s[N], y[N];
static int xi[N], ti[N], acc[N];
static float re[N], im[N], cs[N / 2], sn[N / 2];
static float a[M * M], b[M * M], c[M * M];

void ref_init(void) {
  for (int i = 0; i < N; ++i) {
    x[i] = (float)(i % 13) * 0.125f - 0.75f;
    w[i] = (float)(i % 7) * 0.25f - 0.5f;
    t[i] = (float)(i % 5) * 0.1f;
    xi[i] = i % 97 - 48;
    ti[i] = i % 31 - 15;
    acc[i] = 0;
    re[i] = x[i];
    im[i] = w[i];
  }
  /* cos/sin of 2*pi*k/N by the angle-addition recurrence (no libm). */
  const double c1 = 0.99998117528260111, s1 = 0.0061358846491544753;
  double cr = 1.0, sr = 0.0;
  for (int k = 0; k < N / 2; ++k) {
    cs[k] = (float)cr;
    sn[k] = (float)sr;
    const double next = cr * c1 - sr * s1;
    sr = sr * c1 + cr * s1;
    cr = next;
  }
  for (int i = 0; i < M * M; ++i) {
    a[i] = (float)(i % 11) * 0.1f;
    b[i] = (float)(i % 9) * 0.2f - 0.8f;
  }
}

static void scalar_loops(void) {
  for (int i = 0; i < N; ++i) d[i] = x[i] - w[i];
  for (int i = 0; i < N; ++i) m[i] = d[i] * t[i];
  for (int i = 0; i < N; ++i) s[i] = m[i] + w[i];
  for (int i = 0; i < N; ++i) y[i] = s[i] > 0.0f ? s[i] : 0.0f;
  for (int i = 0; i < N; ++i) x[i] = y[i] * 0.5f + t[i] - 0.25f;
}

static void int_mac(void) {
  for (int i = 0; i < N; ++i) acc[i] = acc[i] + xi[i] * ti[i];
  for (int i = 0; i < N; ++i) xi[i] = (acc[i] >> 3) % 97;
}

static void fft(void) {
  for (int i = 1, j = 0; i < N; ++i) {
    int bit = N >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      float tr = re[i], ti2 = im[i];
      re[i] = re[j];
      im[i] = im[j];
      re[j] = tr;
      im[j] = ti2;
    }
  }
  for (int len = 2; len <= N; len <<= 1) {
    const int step = N / len;
    for (int i = 0; i < N; i += len) {
      for (int k = 0; k < len / 2; ++k) {
        const float wr = cs[k * step], wi = -sn[k * step];
        const int p = i + k, q = i + k + len / 2;
        const float vr = re[q] * wr - im[q] * wi;
        const float vi = re[q] * wi + im[q] * wr;
        re[q] = re[p] - vr;
        im[q] = im[p] - vi;
        re[p] += vr;
        im[p] += vi;
      }
    }
  }
  for (int i = 0; i < N; ++i) {
    re[i] *= 1.0f / 32.0f;
    im[i] *= 1.0f / 32.0f;
  }
}

static void matmul(void) {
  for (int i = 0; i < M; ++i) {
    for (int j = 0; j < M; ++j) {
      float sum = 0.0f;
      for (int k = 0; k < M; ++k) sum += a[i * M + k] * b[k * M + j];
      c[i * M + j] = sum;
    }
  }
  a[0] = c[M + 1] * 1e-3f;
}

void ref_step(const void* const* in, void* const* out) {
  switch (*(const int*)in[0]) {
    case 0: scalar_loops(); break;
    case 1: int_mac(); break;
    case 2: fft(); break;
    default: matmul(); break;
  }
  *(float*)out[0] = y[3] + (float)acc[5] + re[7] + c[9];
}
