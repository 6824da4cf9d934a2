#include "uld3d/nn/layer.hpp"

#include "uld3d/util/check.hpp"

namespace uld3d::nn {

namespace {

void validate(const ConvSpec& s) {
  expects(s.k > 0 && s.c > 0 && s.ox > 0 && s.oy > 0 && s.fx > 0 && s.fy > 0 &&
              s.stride > 0,
          "conv dimensions must be positive: " + s.name);
}

void validate(const PoolSpec& s) {
  expects(s.channels > 0 && s.ox > 0 && s.oy > 0 && s.fx > 0 && s.fy > 0 &&
              s.stride > 0,
          "pool dimensions must be positive: " + s.name);
}

void validate(const EltwiseAddSpec& s) {
  expects(s.channels > 0 && s.ox > 0 && s.oy > 0,
          "eltwise dimensions must be positive: " + s.name);
}

}  // namespace

Layer::Layer(Spec spec) : spec_(std::move(spec)) {
  std::visit([](const auto& s) { validate(s); }, spec_);
}

const std::string& Layer::name() const {
  return std::visit([](const auto& s) -> const std::string& { return s.name; },
                    spec_);
}

bool Layer::is_conv() const { return std::holds_alternative<ConvSpec>(spec_); }
bool Layer::is_pool() const { return std::holds_alternative<PoolSpec>(spec_); }
bool Layer::is_eltwise() const {
  return std::holds_alternative<EltwiseAddSpec>(spec_);
}

const ConvSpec& Layer::conv() const {
  if (!is_conv()) expects(false, "layer is not a convolution: " + name());
  return std::get<ConvSpec>(spec_);
}

const PoolSpec& Layer::pool() const {
  if (!is_pool()) expects(false, "layer is not a pool: " + name());
  return std::get<PoolSpec>(spec_);
}

const EltwiseAddSpec& Layer::eltwise() const {
  if (!is_eltwise()) expects(false, "layer is not an eltwise add: " + name());
  return std::get<EltwiseAddSpec>(spec_);
}

std::int64_t Layer::macs() const {
  if (!is_conv()) return 0;
  const auto& s = conv();
  return s.k * s.c * s.ox * s.oy * s.fx * s.fy;
}

std::int64_t Layer::ops() const {
  if (is_conv()) return 2 * macs();
  if (is_pool()) {
    const auto& s = pool();
    return s.channels * s.ox * s.oy * s.fx * s.fy;  // one compare/add per tap
  }
  const auto& s = eltwise();
  return s.channels * s.ox * s.oy;  // one add per element
}

std::int64_t Layer::weight_count() const {
  if (!is_conv()) return 0;
  const auto& s = conv();
  return s.k * s.c * s.fx * s.fy;
}

std::int64_t Layer::weight_bits(int bits_per_weight) const {
  expects(bits_per_weight > 0, "precision must be positive");
  return weight_count() * bits_per_weight;
}

std::int64_t Layer::input_bits(int bits_per_activation) const {
  expects(bits_per_activation > 0, "precision must be positive");
  if (is_conv()) {
    const auto& s = conv();
    return s.c * s.input_x() * s.input_y() * bits_per_activation;
  }
  if (is_pool()) {
    const auto& s = pool();
    const std::int64_t ix = (s.ox - 1) * s.stride + s.fx;
    const std::int64_t iy = (s.oy - 1) * s.stride + s.fy;
    return s.channels * ix * iy * bits_per_activation;
  }
  const auto& s = eltwise();
  return 2 * s.channels * s.ox * s.oy * bits_per_activation;  // two operands
}

std::int64_t Layer::output_bits(int bits_per_activation) const {
  expects(bits_per_activation > 0, "precision must be positive");
  if (is_conv()) {
    const auto& s = conv();
    return s.k * s.ox * s.oy * bits_per_activation;
  }
  if (is_pool()) {
    const auto& s = pool();
    return s.channels * s.ox * s.oy * bits_per_activation;
  }
  const auto& s = eltwise();
  return s.channels * s.ox * s.oy * bits_per_activation;
}

Layer make_conv(std::string name, std::int64_t k, std::int64_t c,
                std::int64_t ox, std::int64_t oy, std::int64_t fx,
                std::int64_t fy, std::int64_t stride) {
  ConvSpec s;
  s.name = std::move(name);
  s.k = k;
  s.c = c;
  s.ox = ox;
  s.oy = oy;
  s.fx = fx;
  s.fy = fy;
  s.stride = stride;
  return Layer(s);
}

Layer make_fc(std::string name, std::int64_t out_features,
              std::int64_t in_features) {
  return make_conv(std::move(name), out_features, in_features, 1, 1, 1, 1, 1);
}

Layer make_pool(std::string name, std::int64_t channels, std::int64_t ox,
                std::int64_t oy, std::int64_t fx, std::int64_t fy,
                std::int64_t stride) {
  PoolSpec s;
  s.name = std::move(name);
  s.channels = channels;
  s.ox = ox;
  s.oy = oy;
  s.fx = fx;
  s.fy = fy;
  s.stride = stride;
  return Layer(s);
}

Layer make_eltwise(std::string name, std::int64_t channels, std::int64_t ox,
                   std::int64_t oy) {
  EltwiseAddSpec s;
  s.name = std::move(name);
  s.channels = channels;
  s.ox = ox;
  s.oy = oy;
  return Layer(s);
}

}  // namespace uld3d::nn
