#include "src/tensor/autograd.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "src/analysis/shape.h"
#include "src/kernels/kernels.h"
#include "src/obs/memstat.h"
#include "src/obs/trace.h"

namespace rgae {

namespace {

constexpr double kLog2Pi = 1.8378770664093453;  // log(2*pi)

double Softplus(double x) {
  // Numerically stable log(1 + exp(x)).
  return std::log1p(std::exp(-std::abs(x))) + std::max(x, 0.0);
}

double Sigmoid(double x) {
  if (x >= 0.0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

Matrix Scalar(double v) {
  Matrix m(1, 1);
  m(0, 0) = v;
  return m;
}

// Stable per-op metric names; order must match the Op enum in autograd.h.
constexpr const char* kOpMetricNames[] = {
    "leaf",      "constant",   "matmul",     "spmm",
    "add",       "sub",        "hadamard",   "scale",
    "relu",      "exp",        "tanh",       "add_row_broadcast",
    "gather_rows", "inner_product_bce", "gaussian_kl", "kmeans",
    "dec_kl",    "gmm_nll",    "gmm_kl",     "bce_with_logits",
    "add_scalars"};
constexpr size_t kNumOps = std::size(kOpMetricNames);

Shape ShapeOf(const Matrix& m) { return {m.rows(), m.cols()}; }

/// The mixture forward GmmNllLoss and GmmKlLoss share. log π is the
/// log-softmax of the 1×k logits `lg`; per selected row i the log joints
/// are ll_j = log π_j + log N(z_i; μ_j, diag exp(lv_j)). Returns each row's
/// mixture log-likelihood l_i = logsumexp_j ll_j and writes the
/// responsibilities exp(ll_j - l_i) to resp (rows.size() × k).
std::vector<double> GmmMixtureForward(const Matrix& zv, const Matrix& mu,
                                      const Matrix& lv, const Matrix& lg,
                                      const std::vector<int>& rows,
                                      Matrix* resp) {
  const int k = mu.rows();
  const int d = zv.cols();
  const int m = static_cast<int>(rows.size());
  double max_logit = lg(0, 0);
  for (int j = 1; j < k; ++j) max_logit = std::max(max_logit, lg(0, j));
  double lse = 0.0;
  for (int j = 0; j < k; ++j) lse += std::exp(lg(0, j) - max_logit);
  lse = max_logit + std::log(lse);
  std::vector<double> log_pi(k);
  for (int j = 0; j < k; ++j) log_pi[j] = lg(0, j) - lse;

  *resp = Matrix(m, k);
  std::vector<double> row_ll(m);
  std::vector<double> ll(k);
  for (int r = 0; r < m; ++r) {
    const int i = rows[r];
    double row_max = -1e300;
    for (int j = 0; j < k; ++j) {
      double s = log_pi[j];
      for (int c = 0; c < d; ++c) {
        const double diff = zv(i, c) - mu(j, c);
        s -= 0.5 * (lv(j, c) + kLog2Pi + diff * diff * std::exp(-lv(j, c)));
      }
      ll[j] = s;
      row_max = std::max(row_max, s);
    }
    double sum = 0.0;
    for (int j = 0; j < k; ++j) sum += std::exp(ll[j] - row_max);
    row_ll[r] = row_max + std::log(sum);
    for (int j = 0; j < k; ++j) (*resp)(r, j) = std::exp(ll[j] - row_ll[r]);
  }
  return row_ll;
}

/// Counter per tape op ("tape.op.matmul", …), resolved once per process.
obs::Counter* OpCounter(size_t op) {
  static const std::array<obs::Counter*, kNumOps> counters = [] {
    std::array<obs::Counter*, kNumOps> c{};
    for (size_t i = 0; i < kNumOps; ++i) {
      c[i] = obs::MetricsRegistry::Global().GetCounter(
          std::string("tape.op.") + kOpMetricNames[i]);
    }
    return c;
  }();
  return counters[op];
}

}  // namespace

int Tape::Push(Node n) {
  if (backward_done_) {
    throw TapeError(std::string("Tape::") +
                    kOpMetricNames[static_cast<size_t>(n.op)] +
                    ": op recorded after Backward; build a fresh tape");
  }
  if (obs::Enabled()) {
    const size_t op = static_cast<size_t>(n.op);
    if (op < kNumOps) OpCounter(op)->Inc();
    obs::CountTapeNode(n.value.size());
  }
  // Leaves need a gradient and constants never do; every other op needs
  // one as soon as any of its inputs does.
  n.requires_grad =
      n.op == Op::kLeaf ||
      (n.op != Op::kConstant && (RequiresGrad(n.a) || RequiresGrad(n.b) ||
                                 RequiresGrad(n.c) || RequiresGrad(n.d)));
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

void Tape::CheckVar(const char* op, Var v) const {
  if (v.id < 0 || v.tape == nullptr) {
    throw TapeError(std::string("Tape::") + op +
                    ": invalid Var (default-constructed or never recorded)");
  }
  if (v.tape != this) {
    throw TapeError(std::string("Tape::") + op + ": Var #" +
                    std::to_string(v.id) + " belongs to another tape");
  }
  if (v.id >= size()) {
    throw TapeError(std::string("Tape::") + op + ": Var #" +
                    std::to_string(v.id) + " out of range [0, " +
                    std::to_string(size()) + ")");
  }
}

Var Tape::Leaf(Parameter* p) {
  if (p == nullptr) throw TapeError("Tape::Leaf: null Parameter");
  if (p->value.empty()) throw TapeError("Tape::Leaf: empty Parameter value");
  Node n;
  n.op = Op::kLeaf;
  n.value = p->value;
  n.param = p;
  return {Push(std::move(n)), this};
}

Var Tape::Constant(Matrix value) {
  Node n;
  n.op = Op::kConstant;
  n.value = std::move(value);
  return {Push(std::move(n)), this};
}

Var Tape::MatMul(Var a, Var b) {
  CheckVar("MatMul", a);
  CheckVar("MatMul", b);
  InferMatMul(ShapeOf(node(a).value), ShapeOf(node(b).value));
  Node n;
  n.op = Op::kMatMul;
  n.a = a.id;
  n.b = b.id;
  n.value = rgae::MatMul(node(a).value, node(b).value);
  return {Push(std::move(n)), this};
}

Var Tape::Spmm(const CsrMatrix* s, Var x) {
  CheckVar("Spmm", x);
  if (s == nullptr) throw TapeError("Tape::Spmm: null sparse operand");
  InferSpmm({s->rows(), s->cols()}, ShapeOf(node(x).value));
  Node n;
  n.op = Op::kSpmm;
  n.a = x.id;
  n.sparse = s;
  n.value = s->Multiply(node(x).value);
  return {Push(std::move(n)), this};
}

Var Tape::Add(Var a, Var b) {
  CheckVar("Add", a);
  CheckVar("Add", b);
  InferElementwise("Add", ShapeOf(node(a).value), ShapeOf(node(b).value));
  Node n;
  n.op = Op::kAdd;
  n.a = a.id;
  n.b = b.id;
  n.value = rgae::Add(node(a).value, node(b).value);
  return {Push(std::move(n)), this};
}

Var Tape::Sub(Var a, Var b) {
  CheckVar("Sub", a);
  CheckVar("Sub", b);
  InferElementwise("Sub", ShapeOf(node(a).value), ShapeOf(node(b).value));
  Node n;
  n.op = Op::kSub;
  n.a = a.id;
  n.b = b.id;
  n.value = rgae::Sub(node(a).value, node(b).value);
  return {Push(std::move(n)), this};
}

Var Tape::Hadamard(Var a, Var b) {
  CheckVar("Hadamard", a);
  CheckVar("Hadamard", b);
  InferElementwise("Hadamard", ShapeOf(node(a).value),
                   ShapeOf(node(b).value));
  Node n;
  n.op = Op::kHadamard;
  n.a = a.id;
  n.b = b.id;
  n.value = rgae::Hadamard(node(a).value, node(b).value);
  return {Push(std::move(n)), this};
}

Var Tape::Scale(Var a, double s) {
  CheckVar("Scale", a);
  Node n;
  n.op = Op::kScale;
  n.a = a.id;
  n.scalar = s;
  n.value = rgae::Scale(node(a).value, s);
  return {Push(std::move(n)), this};
}

Var Tape::Relu(Var a) {
  CheckVar("Relu", a);
  Node n;
  n.op = Op::kRelu;
  n.a = a.id;
  n.value = node(a).value;
  kernels::Relu(n.value.data(), static_cast<int64_t>(n.value.size()));
  return {Push(std::move(n)), this};
}

Var Tape::Exp(Var a) {
  CheckVar("Exp", a);
  Node n;
  n.op = Op::kExp;
  n.a = a.id;
  n.value = node(a).value;
  for (int r = 0; r < n.value.rows(); ++r) {
    double* p = n.value.row(r);
    for (int c = 0; c < n.value.cols(); ++c) p[c] = std::exp(p[c]);
  }
  return {Push(std::move(n)), this};
}

Var Tape::Tanh(Var a) {
  CheckVar("Tanh", a);
  Node n;
  n.op = Op::kTanh;
  n.a = a.id;
  n.value = node(a).value;
  for (int r = 0; r < n.value.rows(); ++r) {
    double* p = n.value.row(r);
    for (int c = 0; c < n.value.cols(); ++c) p[c] = std::tanh(p[c]);
  }
  return {Push(std::move(n)), this};
}

Var Tape::AddRowBroadcast(Var a, Var bias) {
  CheckVar("AddRowBroadcast", a);
  CheckVar("AddRowBroadcast", bias);
  InferAddRowBroadcast(ShapeOf(node(a).value), ShapeOf(node(bias).value));
  const Matrix& bv = node(bias).value;
  Node n;
  n.op = Op::kAddRowBroadcast;
  n.a = a.id;
  n.b = bias.id;
  n.value = node(a).value;
  for (int r = 0; r < n.value.rows(); ++r) {
    double* p = n.value.row(r);
    for (int c = 0; c < n.value.cols(); ++c) p[c] += bv(0, c);
  }
  return {Push(std::move(n)), this};
}

Var Tape::GatherRows(Var a, std::vector<int> rows) {
  CheckVar("GatherRows", a);
  InferGatherRows(ShapeOf(node(a).value), rows);
  Node n;
  n.op = Op::kGatherRows;
  n.a = a.id;
  n.value = node(a).value.GatherRows(rows);
  n.indices = std::move(rows);
  return {Push(std::move(n)), this};
}

Var Tape::InnerProductBceLoss(Var z, const CsrMatrix* target,
                              double pos_weight, double norm) {
  CheckVar("InnerProductBceLoss", z);
  if (target == nullptr) {
    throw TapeError("Tape::InnerProductBceLoss: null target graph");
  }
  const Matrix& zv = node(z).value;
  const int nrows = zv.rows();
  const int d = zv.cols();
  InferInnerProductBce(ShapeOf(zv), {target->rows(), target->cols()});
  CheckSymmetricPositives("InnerProductBceLoss", *target);
  Node n;
  n.op = Op::kInnerProductBce;
  n.a = z.id;
  n.sparse = target;
  n.w1 = pos_weight;
  n.w2 = norm;
  // σ(s_ij) for j >= i, packed upper triangle: the backward pass's only
  // cache. Neither S nor any other N×N buffer is materialized. Its size
  // fits in an int: InferInnerProductBce checked it. The kernel writes
  // every entry, so it is not zero-filled first.
  const int64_t pairs = static_cast<int64_t>(nrows) * (nrows + 1) / 2;
  n.aux = Matrix::Uninitialized(1, static_cast<int>(pairs));
  double loss = 0.0;
  {
    RGAE_TIMED_KERNEL("kernel.inner_product_bce");
    // Per unordered pair: a d-long dot (2d flops) and the sweep's σ and
    // softplus carry from one shared exp (5 flops). Transcendentals are not
    // booked: one exp per pair, one log1p per row segment. Reads Z, writes
    // σ.
    RGAE_KERNEL_WORK("kernel.inner_product_bce", pairs * (2LL * d + 5),
                     8LL * (static_cast<int64_t>(nrows) * d + pairs));
    loss = kernels::InnerProductBce(
        zv.data(), nrows, d, target->row_ptr().data(),
        target->col_idx().data(), target->values().data(), pos_weight,
        n.aux.data());
  }
  const double denom = static_cast<double>(nrows) * nrows;
  n.value = Scalar(norm * loss / denom);
  return {Push(std::move(n)), this};
}

Var Tape::GaussianKlLoss(Var mu, Var logvar) {
  CheckVar("GaussianKlLoss", mu);
  CheckVar("GaussianKlLoss", logvar);
  const Matrix& m = node(mu).value;
  const Matrix& lv = node(logvar).value;
  InferGaussianKl(ShapeOf(m), ShapeOf(lv));
  Node n;
  n.op = Op::kGaussianKl;
  n.a = mu.id;
  n.b = logvar.id;
  double s = 0.0;
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      s += 1.0 + lv(r, c) - m(r, c) * m(r, c) - std::exp(lv(r, c));
    }
  }
  // Kipf & Welling's normalization: 0.5/N times the mean over nodes of the
  // per-node KL row sums (i.e. an overall 1/N² on the entry sum).
  const double denom = static_cast<double>(m.rows()) * m.rows();
  n.value = Scalar(-0.5 * s / denom);
  return {Push(std::move(n)), this};
}

Var Tape::KMeansLoss(Var z, const Matrix* centers,
                     const std::vector<int>* assign, std::vector<int> rows) {
  CheckVar("KMeansLoss", z);
  if (centers == nullptr || assign == nullptr) {
    throw TapeError("Tape::KMeansLoss: null centers or assignments");
  }
  const Matrix& zv = node(z).value;
  InferKMeans(ShapeOf(zv), ShapeOf(*centers), *assign, rows);
  Node n;
  n.op = Op::kKMeans;
  n.a = z.id;
  n.ext = centers;
  n.ext_idx = assign;
  if (rows.empty()) {
    rows.resize(zv.rows());
    for (int i = 0; i < zv.rows(); ++i) rows[i] = i;
  }
  double loss = 0.0;
  for (int i : rows) {
    loss += RowSquaredDistance(zv, i, *centers, (*assign)[i]);
  }
  n.value = Scalar(loss / static_cast<double>(rows.size()));
  n.indices = std::move(rows);
  return {Push(std::move(n)), this};
}

Var Tape::DecKlLoss(Var z, Var centers, const Matrix* target_q,
                    std::vector<int> rows) {
  CheckVar("DecKlLoss", z);
  CheckVar("DecKlLoss", centers);
  if (target_q == nullptr) {
    throw TapeError("Tape::DecKlLoss: null target distribution");
  }
  const Matrix& zv = node(z).value;
  const Matrix& cv = node(centers).value;
  InferDecKl(ShapeOf(zv), ShapeOf(cv), ShapeOf(*target_q), rows);
  const int k = cv.rows();
  if (rows.empty()) {
    rows.resize(zv.rows());
    for (int i = 0; i < zv.rows(); ++i) rows[i] = i;
  }
  const int m = static_cast<int>(rows.size());
  Node n;
  n.op = Op::kDecKl;
  n.a = z.id;
  n.b = centers.id;
  n.ext = target_q;
  n.aux = Matrix(m, k);   // P (soft assignments).
  n.aux2 = Matrix(m, k);  // U (unnormalized Student-t kernels).
  double loss = 0.0;
  for (int r = 0; r < m; ++r) {
    const int i = rows[r];
    double srow = 0.0;
    for (int j = 0; j < k; ++j) {
      const double u = 1.0 / (1.0 + RowSquaredDistance(zv, i, cv, j));
      n.aux2(r, j) = u;
      srow += u;
    }
    for (int j = 0; j < k; ++j) {
      const double p = n.aux2(r, j) / srow;
      n.aux(r, j) = p;
      const double q = (*target_q)(i, j);
      if (q > 1e-12) loss += q * std::log(q / std::max(p, 1e-12));
    }
  }
  n.value = Scalar(loss / m);
  n.indices = std::move(rows);
  return {Push(std::move(n)), this};
}

Var Tape::GmmNllLoss(Var z, Var means, Var logvars, Var pi_logits,
                     std::vector<int> rows) {
  CheckVar("GmmNllLoss", z);
  CheckVar("GmmNllLoss", means);
  CheckVar("GmmNllLoss", logvars);
  CheckVar("GmmNllLoss", pi_logits);
  const Matrix& zv = node(z).value;
  const Matrix& mu = node(means).value;
  const Matrix& lv = node(logvars).value;
  const Matrix& lg = node(pi_logits).value;
  InferGmmMixture("GmmNllLoss", ShapeOf(zv), ShapeOf(mu), ShapeOf(lv),
                  ShapeOf(lg), rows);
  if (rows.empty()) {
    rows.resize(zv.rows());
    for (int i = 0; i < zv.rows(); ++i) rows[i] = i;
  }
  const int m = static_cast<int>(rows.size());

  Node n;
  n.op = Op::kGmmNll;
  n.a = z.id;
  n.b = means.id;
  n.c = logvars.id;
  n.d = pi_logits.id;
  // aux: the responsibilities r_ik.
  double loss = 0.0;
  for (const double li : GmmMixtureForward(zv, mu, lv, lg, rows, &n.aux)) {
    loss -= li;
  }
  n.value = Scalar(loss / m);
  n.indices = std::move(rows);
  return {Push(std::move(n)), this};
}

Var Tape::GmmKlLoss(Var z, Var means, Var logvars, Var pi_logits,
                    const Matrix* target_q, std::vector<int> rows) {
  CheckVar("GmmKlLoss", z);
  CheckVar("GmmKlLoss", means);
  CheckVar("GmmKlLoss", logvars);
  CheckVar("GmmKlLoss", pi_logits);
  if (target_q == nullptr) {
    throw TapeError("Tape::GmmKlLoss: null target distribution");
  }
  const Matrix& zv = node(z).value;
  const Matrix& mu = node(means).value;
  const Matrix& lv = node(logvars).value;
  const Matrix& lg = node(pi_logits).value;
  InferGmmKl(ShapeOf(zv), ShapeOf(mu), ShapeOf(lv), ShapeOf(lg),
             ShapeOf(*target_q), rows);
  const int k = mu.rows();
  if (rows.empty()) {
    rows.resize(zv.rows());
    for (int i = 0; i < zv.rows(); ++i) rows[i] = i;
  }
  const int m = static_cast<int>(rows.size());

  Node n;
  n.op = Op::kGmmKl;
  n.a = z.id;
  n.b = means.id;
  n.c = logvars.id;
  n.d = pi_logits.id;  // Read-only input: no gradient flows (EM-owned).
  n.ext = target_q;
  // aux: the responsibilities r_ik.
  GmmMixtureForward(zv, mu, lv, lg, rows, &n.aux);
  double loss = 0.0;
  for (int r = 0; r < m; ++r) {
    const int i = rows[r];
    for (int j = 0; j < k; ++j) {
      const double q = (*target_q)(i, j);
      if (q > 1e-12) loss += q * std::log(q / std::max(n.aux(r, j), 1e-12));
    }
  }
  n.value = Scalar(loss / m);
  n.indices = std::move(rows);
  return {Push(std::move(n)), this};
}

Var Tape::BceWithLogits(Var logits, const Matrix* targets) {
  CheckVar("BceWithLogits", logits);
  if (targets == nullptr) {
    throw TapeError("Tape::BceWithLogits: null targets");
  }
  const Matrix& l = node(logits).value;
  InferBceWithLogits(ShapeOf(l), ShapeOf(*targets));
  Node n;
  n.op = Op::kBceWithLogits;
  n.a = logits.id;
  n.ext = targets;
  double loss = 0.0;
  for (int r = 0; r < l.rows(); ++r) {
    for (int c = 0; c < l.cols(); ++c) {
      loss += Softplus(l(r, c)) - (*targets)(r, c) * l(r, c);
    }
  }
  n.value = Scalar(loss / static_cast<double>(l.size()));
  return {Push(std::move(n)), this};
}

Var Tape::AddScalars(Var a, Var b) {
  CheckVar("AddScalars", a);
  CheckVar("AddScalars", b);
  InferAddScalars(ShapeOf(node(a).value), ShapeOf(node(b).value));
  Node n;
  n.op = Op::kAddScalars;
  n.a = a.id;
  n.b = b.id;
  n.value = Scalar(node(a).value(0, 0) + node(b).value(0, 0));
  return {Push(std::move(n)), this};
}

const Matrix& Tape::value(Var v) const {
  CheckVar("value", v);
  return node(v).value;
}

const Matrix& Tape::grad(Var v) const {
  CheckVar("grad", v);
  return node(v).grad;
}

void Tape::EnsureGrad(int id) {
  Node& n = nodes_[id];
  if (n.grad.empty() && !n.value.empty()) {
    n.grad = Matrix(n.value.rows(), n.value.cols());
  }
}

Matrix* Tape::InputGrad(int id) {
  if (!nodes_[id].requires_grad) return nullptr;
  EnsureGrad(id);
  return &nodes_[id].grad;
}

std::vector<TapeNodeView> Tape::NodeViews() const {
  std::vector<TapeNodeView> views;
  views.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    TapeNodeView v;
    v.id = static_cast<int>(i);
    v.op = kOpMetricNames[static_cast<size_t>(n.op)];
    v.inputs = {n.a, n.b, n.c, n.d};
    for (size_t s = 0; s < v.inputs.size(); ++s) {
      v.grad_flow[s] = RequiresGrad(v.inputs[s]);
    }
    if (n.op == Op::kGmmKl) {
      // Mixture operands are EM-owned: Backward only reaches z (input 0).
      v.grad_flow[1] = v.grad_flow[2] = v.grad_flow[3] = false;
    }
    v.param = n.param;
    v.rows = n.value.rows();
    v.cols = n.value.cols();
    views.push_back(v);
  }
  return views;
}

void Tape::Backward(Var loss) {
  RGAE_TIMED_KERNEL("tape.backward");
  CheckVar("Backward", loss);
  if (backward_done_) {
    throw TapeError(
        "Tape::Backward: called twice on the same tape; gradients would "
        "double-accumulate. Build a fresh tape per step.");
  }
  if (node(loss).value.size() != 1) {
    throw TapeError("Tape::Backward: loss node must be scalar (1x1), is " +
                    node(loss).value.ShapeString());
  }
  backward_done_ = true;
  EnsureGrad(loss.id);
  nodes_[loss.id].grad(0, 0) = 1.0;
  for (int id = static_cast<int>(nodes_.size()) - 1; id >= 0; --id) {
    if (nodes_[id].grad.empty()) continue;  // Node not on the loss path.
    BackwardNode(id);
  }
}

void Tape::BackwardNode(int id) {
  Node& n = nodes_[id];
  const Matrix& g = n.grad;
  // InputGrad is null for inputs that need no gradient: their work is
  // skipped, which leaves every other input's gradient bits unchanged.
  switch (n.op) {
    case Op::kLeaf:
      n.param->grad += g;
      break;
    case Op::kConstant:
      break;
    case Op::kMatMul: {
      if (Matrix* ga = InputGrad(n.a)) {
        *ga += MatMulTransB(g, nodes_[n.b].value);
      }
      if (Matrix* gb = InputGrad(n.b)) {
        *gb += MatMulTransA(nodes_[n.a].value, g);
      }
      break;
    }
    case Op::kSpmm: {
      if (Matrix* ga = InputGrad(n.a)) {
        *ga += n.sparse->MultiplyTransposed(g);
      }
      break;
    }
    case Op::kAdd: {
      if (Matrix* ga = InputGrad(n.a)) *ga += g;
      if (Matrix* gb = InputGrad(n.b)) *gb += g;
      break;
    }
    case Op::kSub: {
      if (Matrix* ga = InputGrad(n.a)) *ga += g;
      if (Matrix* gb = InputGrad(n.b)) *gb -= g;
      break;
    }
    case Op::kHadamard: {
      if (Matrix* ga = InputGrad(n.a)) {
        *ga += rgae::Hadamard(g, nodes_[n.b].value);
      }
      if (Matrix* gb = InputGrad(n.b)) {
        *gb += rgae::Hadamard(g, nodes_[n.a].value);
      }
      break;
    }
    case Op::kScale: {
      if (Matrix* ga = InputGrad(n.a)) *ga += rgae::Scale(g, n.scalar);
      break;
    }
    case Op::kRelu: {
      if (Matrix* ga = InputGrad(n.a)) {
        kernels::ReluGrad(n.value.data(), g.data(), ga->data(),
                          static_cast<int64_t>(g.size()));
      }
      break;
    }
    case Op::kExp: {
      if (Matrix* ga = InputGrad(n.a)) *ga += rgae::Hadamard(g, n.value);
      break;
    }
    case Op::kTanh: {
      Matrix* ga = InputGrad(n.a);
      if (ga == nullptr) break;
      for (int r = 0; r < g.rows(); ++r) {
        for (int c = 0; c < g.cols(); ++c) {
          const double t = n.value(r, c);
          (*ga)(r, c) += g(r, c) * (1.0 - t * t);
        }
      }
      break;
    }
    case Op::kAddRowBroadcast: {
      if (Matrix* ga = InputGrad(n.a)) *ga += g;
      if (Matrix* gb = InputGrad(n.b)) {
        for (int r = 0; r < g.rows(); ++r) {
          for (int c = 0; c < g.cols(); ++c) (*gb)(0, c) += g(r, c);
        }
      }
      break;
    }
    case Op::kGatherRows: {
      Matrix* ga = InputGrad(n.a);
      if (ga == nullptr) break;
      for (size_t r = 0; r < n.indices.size(); ++r) {
        const int src = n.indices[r];
        for (int c = 0; c < g.cols(); ++c) {
          (*ga)(src, c) += g(static_cast<int>(r), c);
        }
      }
      break;
    }
    case Op::kInnerProductBce: {
      Matrix* gz = InputGrad(n.a);
      if (gz == nullptr) break;
      const Matrix& z = nodes_[n.a].value;
      const int nrows = z.rows();
      const int d = z.cols();
      const double gs = g(0, 0) * n.w2 /
                        (static_cast<double>(nrows) * nrows);
      // dL/dZ = (C + Cᵀ) Z with C_ij = dL/ds_ij: gs·σ(s) for negatives,
      // gs·pos_weight·(σ(s) - 1) for positives. The target's positives are
      // symmetric (checked when the node was recorded), so C is too, and
      // C·Z + C·Z rounds exactly as the unfused MatMul(C, Z) +
      // MatMulTransA(C, Z) did.
      Matrix cz(nrows, d);
      {
        RGAE_TIMED_KERNEL("kernel.inner_product_bce_grad");
        // One N×N×d product C·Z (2 flops per term) and one multiply per
        // ordered pair to form C from σ. Reads σ and Z, writes C·Z.
        const int64_t pairs = static_cast<int64_t>(nrows) * (nrows + 1) / 2;
        RGAE_KERNEL_WORK("kernel.inner_product_bce_grad",
                         static_cast<int64_t>(nrows) * nrows * (2LL * d + 1),
                         8LL * (pairs + 2LL * nrows * d));
        kernels::InnerProductBceGrad(
            z.data(), nrows, d, n.sparse->row_ptr().data(),
            n.sparse->col_idx().data(), n.sparse->values().data(), n.w1, gs,
            n.aux.data(), cz.data());
      }
      cz += cz;
      *gz += cz;
      break;
    }
    case Op::kGaussianKl: {
      const Matrix& mu = nodes_[n.a].value;
      const Matrix& lv = nodes_[n.b].value;
      const double gs =
          g(0, 0) / (static_cast<double>(mu.rows()) * mu.rows());
      if (Matrix* gmu = InputGrad(n.a)) {
        for (int r = 0; r < mu.rows(); ++r) {
          for (int c = 0; c < mu.cols(); ++c) (*gmu)(r, c) += gs * mu(r, c);
        }
      }
      if (Matrix* glv = InputGrad(n.b)) {
        for (int r = 0; r < mu.rows(); ++r) {
          for (int c = 0; c < mu.cols(); ++c) {
            (*glv)(r, c) += gs * 0.5 * (std::exp(lv(r, c)) - 1.0);
          }
        }
      }
      break;
    }
    case Op::kKMeans: {
      Matrix* gz = InputGrad(n.a);
      if (gz == nullptr) break;
      const Matrix& z = nodes_[n.a].value;
      const double gs =
          g(0, 0) * 2.0 / static_cast<double>(n.indices.size());
      for (int i : n.indices) {
        const int a = (*n.ext_idx)[i];
        for (int c = 0; c < z.cols(); ++c) {
          (*gz)(i, c) += gs * (z(i, c) - (*n.ext)(a, c));
        }
      }
      break;
    }
    case Op::kDecKl: {
      Matrix* gz = InputGrad(n.a);
      Matrix* gc = InputGrad(n.b);
      const Matrix& z = nodes_[n.a].value;
      const Matrix& cv = nodes_[n.b].value;
      const int k = cv.rows();
      const double gs = g(0, 0) / static_cast<double>(n.indices.size());
      for (size_t r = 0; r < n.indices.size(); ++r) {
        const int i = n.indices[r];
        for (int j = 0; j < k; ++j) {
          const double u = n.aux2(static_cast<int>(r), j);
          const double p = n.aux(static_cast<int>(r), j);
          const double q = (*n.ext)(i, j);
          // dL/d(d²_ij) = u_ij (q_ij - p_ij); see the derivation in
          // models/dgae.cc.
          const double coeff = gs * u * (q - p) * 2.0;
          for (int c = 0; c < z.cols(); ++c) {
            const double diff = z(i, c) - cv(j, c);
            if (gz != nullptr) (*gz)(i, c) += coeff * diff;
            if (gc != nullptr) (*gc)(j, c) -= coeff * diff;
          }
        }
      }
      break;
    }
    case Op::kGmmNll: {
      Matrix* gz = InputGrad(n.a);
      Matrix* gmu = InputGrad(n.b);
      Matrix* glv = InputGrad(n.c);
      Matrix* glg = InputGrad(n.d);
      const Matrix& z = nodes_[n.a].value;
      const Matrix& mu = nodes_[n.b].value;
      const Matrix& lv = nodes_[n.c].value;
      const Matrix& lg = nodes_[n.d].value;
      const int k = mu.rows();
      const int d = z.cols();
      const double gs = g(0, 0) / static_cast<double>(n.indices.size());
      // Softmax of logits (for the logit gradient).
      double max_logit = lg(0, 0);
      for (int j = 1; j < k; ++j) max_logit = std::max(max_logit, lg(0, j));
      std::vector<double> pi(k);
      double lse = 0.0;
      for (int j = 0; j < k; ++j) {
        pi[j] = std::exp(lg(0, j) - max_logit);
        lse += pi[j];
      }
      for (int j = 0; j < k; ++j) pi[j] /= lse;
      for (size_t r = 0; r < n.indices.size(); ++r) {
        const int i = n.indices[r];
        for (int j = 0; j < k; ++j) {
          const double resp = n.aux(static_cast<int>(r), j);
          if (glg != nullptr) (*glg)(0, j) += gs * (pi[j] - resp);
          for (int c = 0; c < d; ++c) {
            const double inv_var = std::exp(-lv(j, c));
            const double diff = z(i, c) - mu(j, c);
            if (gz != nullptr) (*gz)(i, c) += gs * resp * diff * inv_var;
            if (gmu != nullptr) (*gmu)(j, c) -= gs * resp * diff * inv_var;
            if (glv != nullptr) {
              (*glv)(j, c) += gs * resp * 0.5 * (1.0 - diff * diff * inv_var);
            }
          }
        }
      }
      break;
    }
    case Op::kGmmKl: {
      Matrix* gz = InputGrad(n.a);
      if (gz == nullptr) break;
      const Matrix& z = nodes_[n.a].value;
      const Matrix& mu = nodes_[n.b].value;
      const Matrix& lv = nodes_[n.c].value;
      const int k = mu.rows();
      const double gs = g(0, 0) / static_cast<double>(n.indices.size());
      // d KL / d logit_ik = (r_ik - q_ik); d logit_ik / d z_ic =
      // -(z_ic - mu_kc) / var_kc. Mixture leaves are EM-owned: no gradient.
      for (size_t r = 0; r < n.indices.size(); ++r) {
        const int i = n.indices[r];
        for (int j = 0; j < k; ++j) {
          const double coeff =
              gs * (n.aux(static_cast<int>(r), j) - (*n.ext)(i, j));
          for (int c = 0; c < z.cols(); ++c) {
            (*gz)(i, c) -= coeff * (z(i, c) - mu(j, c)) * std::exp(-lv(j, c));
          }
        }
      }
      break;
    }
    case Op::kBceWithLogits: {
      Matrix* gl = InputGrad(n.a);
      if (gl == nullptr) break;
      const Matrix& l = nodes_[n.a].value;
      const double gs = g(0, 0) / static_cast<double>(l.size());
      for (int r = 0; r < l.rows(); ++r) {
        for (int c = 0; c < l.cols(); ++c) {
          (*gl)(r, c) += gs * (Sigmoid(l(r, c)) - (*n.ext)(r, c));
        }
      }
      break;
    }
    case Op::kAddScalars: {
      if (Matrix* ga = InputGrad(n.a)) (*ga)(0, 0) += g(0, 0);
      if (Matrix* gb = InputGrad(n.b)) (*gb)(0, 0) += g(0, 0);
      break;
    }
  }
}

}  // namespace rgae
