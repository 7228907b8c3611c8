#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "ops/activations.h"
#include "ops/batchnorm.h"
#include "ops/concat.h"
#include "ops/conv2d.h"
#include "ops/deconv2d.h"

namespace ccovid::graph {

// --------------------------------------------------------------- IR

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kInput: return "input";
    case OpKind::kConv2d: return "conv2d";
    case OpKind::kDeconv2d: return "deconv2d";
    case OpKind::kBatchNorm: return "batchnorm";
    case OpKind::kInstanceNorm: return "instance_norm";
    case OpKind::kRelu: return "relu";
    case OpKind::kLeakyRelu: return "leaky_relu";
    case OpKind::kMaxPool: return "max_pool";
    case OpKind::kUnpool: return "unpool";
    case OpKind::kConcat: return "concat";
    case OpKind::kAdd: return "add";
  }
  return "?";
}

std::string ValueShape::str() const {
  return "(" + std::to_string(n) + "," + std::to_string(c) + "," +
         std::to_string(h) + "," + std::to_string(w) + ")";
}

int Graph::push(Node n) {
  n.id = int(nodes_.size());
  nodes_.push_back(std::move(n));
  output_ = nodes_.back().id;
  return output_;
}

const Node& Graph::in_node(int id, const char* who) const {
  if (id < 0 || id >= int(nodes_.size())) {
    throw std::invalid_argument(std::string("graph: ") + who +
                                ": input id out of range");
  }
  return nodes_[size_t(id)];
}

int Graph::add_input(ValueShape s) {
  if (!nodes_.empty()) {
    throw std::invalid_argument("graph: add_input: single input only");
  }
  if (s.n < 1 || s.c < 1 || s.h < 1 || s.w < 1) {
    throw std::invalid_argument("graph: add_input: bad shape " + s.str());
  }
  Node n;
  n.kind = OpKind::kInput;
  n.shape = s;
  return push(std::move(n));
}

int Graph::add_conv2d(int in, Tensor weight, Tensor bias, index_t pad) {
  const Node& src = in_node(in, "conv2d");
  if (weight.rank() != 4 || weight.dim(2) != weight.dim(3)) {
    throw std::invalid_argument("graph: conv2d: weight must be (Cout,Cin,K,K)");
  }
  if (weight.dim(1) != src.shape.c) {
    throw std::invalid_argument("graph: conv2d: channel mismatch");
  }
  if (bias.defined() && (bias.rank() != 1 || bias.dim(0) != weight.dim(0))) {
    throw std::invalid_argument("graph: conv2d: bias must be (Cout)");
  }
  if (pad < 0) throw std::invalid_argument("graph: conv2d: negative pad");
  const index_t k = weight.dim(2);
  Node n;
  n.kind = OpKind::kConv2d;
  n.inputs = {in};
  n.ksize = k;
  n.pad = pad;
  n.shape = {src.shape.n, weight.dim(0),
             ops::conv_out_extent(src.shape.h, k, 1, pad),
             ops::conv_out_extent(src.shape.w, k, 1, pad)};
  if (n.shape.h <= 0 || n.shape.w <= 0) {
    throw std::invalid_argument("graph: conv2d: non-positive output extent");
  }
  n.weight = std::move(weight);
  n.bias = std::move(bias);
  return push(std::move(n));
}

int Graph::add_deconv2d(int in, Tensor weight, Tensor bias, index_t pad) {
  const Node& src = in_node(in, "deconv2d");
  if (weight.rank() != 4 || weight.dim(2) != weight.dim(3)) {
    throw std::invalid_argument(
        "graph: deconv2d: weight must be (Cin,Cout,K,K)");
  }
  if (weight.dim(0) != src.shape.c) {
    throw std::invalid_argument("graph: deconv2d: channel mismatch");
  }
  if (bias.defined() && (bias.rank() != 1 || bias.dim(0) != weight.dim(1))) {
    throw std::invalid_argument("graph: deconv2d: bias must be (Cout)");
  }
  if (pad < 0) throw std::invalid_argument("graph: deconv2d: negative pad");
  const index_t k = weight.dim(2);
  Node n;
  n.kind = OpKind::kDeconv2d;
  n.inputs = {in};
  n.ksize = k;
  n.pad = pad;
  n.shape = {src.shape.n, weight.dim(1),
             ops::deconv_out_extent(src.shape.h, k, 1, pad),
             ops::deconv_out_extent(src.shape.w, k, 1, pad)};
  if (n.shape.h <= 0 || n.shape.w <= 0) {
    throw std::invalid_argument("graph: deconv2d: non-positive output extent");
  }
  n.weight = std::move(weight);
  n.bias = std::move(bias);
  return push(std::move(n));
}

int Graph::add_batchnorm(int in, Tensor gamma, Tensor beta,
                         Tensor running_mean, Tensor running_var,
                         real_t eps) {
  const Node& src = in_node(in, "batchnorm");
  for (const Tensor* t : {&gamma, &beta, &running_mean, &running_var}) {
    if (!t->defined() || t->rank() != 1 || t->dim(0) != src.shape.c) {
      throw std::invalid_argument("graph: batchnorm: params must be (C)");
    }
  }
  Node n;
  n.kind = OpKind::kBatchNorm;
  n.inputs = {in};
  n.shape = src.shape;
  n.gamma = std::move(gamma);
  n.beta = std::move(beta);
  n.mean = std::move(running_mean);
  n.var = std::move(running_var);
  n.eps = eps;
  return push(std::move(n));
}

int Graph::add_instance_norm(int in, Tensor gamma, Tensor beta, real_t eps) {
  const Node& src = in_node(in, "instance_norm");
  for (const Tensor* t : {&gamma, &beta}) {
    if (!t->defined() || t->rank() != 1 || t->dim(0) != src.shape.c) {
      throw std::invalid_argument("graph: instance_norm: params must be (C)");
    }
  }
  Node n;
  n.kind = OpKind::kInstanceNorm;
  n.inputs = {in};
  n.shape = src.shape;
  n.gamma = std::move(gamma);
  n.beta = std::move(beta);
  n.eps = eps;
  return push(std::move(n));
}

int Graph::add_relu(int in) {
  Node n;
  n.kind = OpKind::kRelu;
  n.inputs = {in};
  n.shape = in_node(in, "relu").shape;
  return push(std::move(n));
}

int Graph::add_leaky_relu(int in, real_t slope) {
  Node n;
  n.kind = OpKind::kLeakyRelu;
  n.inputs = {in};
  n.shape = in_node(in, "leaky_relu").shape;
  n.slope = slope;
  return push(std::move(n));
}

int Graph::add_max_pool(int in, ops::Pool2dParams p) {
  const Node& src = in_node(in, "max_pool");
  if (p.ksize < 1 || p.stride < 1 || p.pad < 0 || p.pad >= p.ksize) {
    throw std::invalid_argument("graph: max_pool: bad params");
  }
  Node n;
  n.kind = OpKind::kMaxPool;
  n.inputs = {in};
  n.pool = p;
  n.shape = {src.shape.n, src.shape.c, ops::pool_out_extent(src.shape.h, p),
             ops::pool_out_extent(src.shape.w, p)};
  if (n.shape.h <= 0 || n.shape.w <= 0) {
    throw std::invalid_argument("graph: max_pool: non-positive output extent");
  }
  return push(std::move(n));
}

int Graph::add_unpool(int in, index_t scale) {
  const Node& src = in_node(in, "unpool");
  if (scale < 1) throw std::invalid_argument("graph: unpool: scale < 1");
  Node n;
  n.kind = OpKind::kUnpool;
  n.inputs = {in};
  n.scale = scale;
  n.shape = {src.shape.n, src.shape.c, src.shape.h * scale,
             src.shape.w * scale};
  return push(std::move(n));
}

int Graph::add_concat(const std::vector<int>& ins) {
  if (ins.empty()) throw std::invalid_argument("graph: concat: no inputs");
  const Node& first = in_node(ins[0], "concat");
  index_t total_c = 0;
  for (int id : ins) {
    const Node& src = in_node(id, "concat");
    if (src.shape.n != first.shape.n || src.shape.h != first.shape.h ||
        src.shape.w != first.shape.w) {
      throw std::invalid_argument("graph: concat: shape mismatch");
    }
    total_c += src.shape.c;
  }
  Node n;
  n.kind = OpKind::kConcat;
  n.inputs = ins;
  n.shape = {first.shape.n, total_c, first.shape.h, first.shape.w};
  return push(std::move(n));
}

int Graph::add_add(int a, int b) {
  const Node& na = in_node(a, "add");
  const Node& nb = in_node(b, "add");
  if (na.shape != nb.shape) {
    throw std::invalid_argument("graph: add: shape mismatch " +
                                na.shape.str() + " vs " + nb.shape.str());
  }
  Node n;
  n.kind = OpKind::kAdd;
  n.inputs = {a, b};
  n.shape = na.shape;
  return push(std::move(n));
}

void Graph::mark_output(int id) {
  in_node(id, "mark_output");
  output_ = id;
}

int Graph::output() const {
  if (output_ < 0) throw std::logic_error("graph: empty graph has no output");
  return output_;
}

ValueShape Graph::input_shape() const {
  if (nodes_.empty() || nodes_[0].kind != OpKind::kInput) {
    throw std::logic_error("graph: no input node");
  }
  return nodes_[0].shape;
}

std::vector<int> Graph::schedule() const {
  // Kahn with a smallest-id-first ready set. Ids are already born in a
  // valid topological order, so this is equivalent to 0..N-1 — but
  // computing it from the edges (and asserting every node is reached)
  // keeps the invariant honest if construction ever changes.
  const int n = num_nodes();
  std::vector<int> indegree(size_t(n), 0);
  for (const Node& node : nodes_) {
    indegree[size_t(node.id)] = int(node.inputs.size());
  }
  const auto cons = consumers();
  std::vector<int> ready, order;
  order.reserve(size_t(n));
  for (int i = 0; i < n; ++i) {
    if (indegree[size_t(i)] == 0) ready.push_back(i);
  }
  while (!ready.empty()) {
    const auto it = std::min_element(ready.begin(), ready.end());
    const int id = *it;
    ready.erase(it);
    order.push_back(id);
    for (int c : cons[size_t(id)]) {
      if (--indegree[size_t(c)] == 0) ready.push_back(c);
    }
  }
  if (int(order.size()) != n) {
    throw std::logic_error("graph: cycle detected in schedule()");
  }
  return order;
}

std::vector<std::vector<int>> Graph::consumers() const {
  auto out = std::vector<std::vector<int>>(static_cast<size_t>(num_nodes()));
  for (const Node& node : nodes_) {
    // A node reading the same value twice (add(x, x)) counts once per
    // edge; consumer-count-based fusion legality needs exactly that.
    for (int in : node.inputs) out[size_t(in)].push_back(node.id);
  }
  return out;
}

// -------------------------------------------------------- reference

namespace {

/// Op-by-op sweep retaining EVERY node value (run_reference keeps only
/// the output alive transitively; calibrate() needs all of them).
std::vector<Tensor> eval_all_nodes(const Graph& g, const Tensor& input) {
  if (input.rank() != 4) {
    throw std::invalid_argument("run_reference: input must be NCHW");
  }
  std::vector<Tensor> values(size_t(g.num_nodes()));
  for (int id : g.schedule()) {
    const Node& n = g.node(id);
    Tensor& out = values[size_t(id)];
    switch (n.kind) {
      case OpKind::kInput:
        out = input;
        break;
      case OpKind::kConv2d:
        out = ops::conv2d(values[size_t(n.inputs[0])], n.weight, n.bias,
                          ops::Conv2dParams{1, n.pad});
        break;
      case OpKind::kDeconv2d:
        out = ops::deconv2d(values[size_t(n.inputs[0])], n.weight, n.bias,
                            ops::Deconv2dParams{1, n.pad});
        break;
      case OpKind::kBatchNorm:
        out = ops::batch_norm_infer(values[size_t(n.inputs[0])], n.gamma,
                                    n.beta, n.mean, n.var, n.eps);
        break;
      case OpKind::kInstanceNorm:
        out = ops::instance_norm(values[size_t(n.inputs[0])], n.gamma,
                                 n.beta, n.eps);
        break;
      case OpKind::kRelu:
        out = ops::relu(values[size_t(n.inputs[0])]);
        break;
      case OpKind::kLeakyRelu:
        out = ops::leaky_relu(values[size_t(n.inputs[0])], n.slope);
        break;
      case OpKind::kMaxPool:
        out = ops::max_pool2d(values[size_t(n.inputs[0])], n.pool,
                              /*with_argmax=*/false)
                  .output;
        break;
      case OpKind::kUnpool:
        out = ops::unpool2d_bilinear(values[size_t(n.inputs[0])], n.scale);
        break;
      case OpKind::kConcat: {
        std::vector<Tensor> ins;
        ins.reserve(n.inputs.size());
        for (int in : n.inputs) ins.push_back(values[size_t(in)]);
        out = ops::concat_channels(ins);
        break;
      }
      case OpKind::kAdd:
        out = values[size_t(n.inputs[0])].add(values[size_t(n.inputs[1])]);
        break;
    }
  }
  return values;
}

}  // namespace

Tensor run_reference(const Graph& g, const Tensor& input) {
  return eval_all_nodes(g, input)[size_t(g.output())];
}

Calibration calibrate(const Graph& g, const std::vector<Tensor>& batch) {
  if (batch.empty()) {
    throw std::invalid_argument("calibrate: empty batch");
  }
  std::vector<float> absmax(size_t(g.num_nodes()), 0.0f);
  for (const Tensor& input : batch) {
    const std::vector<Tensor> values = eval_all_nodes(g, input);
    for (int id = 0; id < g.num_nodes(); ++id) {
      const Tensor& v = values[size_t(id)];
      if (!v.defined()) continue;
      const real_t* p = v.data();
      float m = absmax[size_t(id)];
      const index_t n = v.numel();
      for (index_t i = 0; i < n; ++i) {
        const float a = std::fabs(p[i]);
        // NaN/Inf inputs degrade upstream (core/finite.h); here they
        // must not poison the scale, so only finite maxima count.
        if (a > m && a < std::numeric_limits<float>::infinity()) m = a;
      }
      absmax[size_t(id)] = m;
    }
  }
  Calibration cal;
  cal.node_scale.resize(size_t(g.num_nodes()));
  for (int id = 0; id < g.num_nodes(); ++id) {
    const float m = absmax[size_t(id)];
    cal.node_scale[size_t(id)] = m > 0.0f ? m / 127.0f : 1.0f;
  }
  // Unify each concat group (inputs + output share one scale) so the
  // quantized concat is pure byte movement. Groups can chain through
  // shared producers, so iterate to a fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Node& n : g.nodes()) {
      if (n.kind != OpKind::kConcat) continue;
      float s = cal.node_scale[size_t(n.id)];
      for (int in : n.inputs) s = std::max(s, cal.node_scale[size_t(in)]);
      for (int in : n.inputs) {
        if (cal.node_scale[size_t(in)] != s) {
          cal.node_scale[size_t(in)] = s;
          changed = true;
        }
      }
      if (cal.node_scale[size_t(n.id)] != s) {
        cal.node_scale[size_t(n.id)] = s;
        changed = true;
      }
    }
  }
  return cal;
}

}  // namespace ccovid::graph
