#include "core/package.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/preflight.h"
#include "data/io.h"

namespace dg::core {

namespace {
constexpr const char* kConfigMagic = "doppelganger-config v1";
constexpr const char* kPackageMagic = "doppelganger-package v1";
constexpr const char* kSectionEnd = "---";
}  // namespace

void save_config(std::ostream& os, const DoppelGangerConfig& cfg) {
  os << kConfigMagic << '\n';
  os << "attr_noise_dim " << cfg.attr_noise_dim << '\n';
  os << "minmax_noise_dim " << cfg.minmax_noise_dim << '\n';
  os << "feat_noise_dim " << cfg.feat_noise_dim << '\n';
  os << "attr_hidden " << cfg.attr_hidden << '\n';
  os << "attr_layers " << cfg.attr_layers << '\n';
  os << "minmax_hidden " << cfg.minmax_hidden << '\n';
  os << "minmax_layers " << cfg.minmax_layers << '\n';
  os << "lstm_units " << cfg.lstm_units << '\n';
  os << "head_hidden " << cfg.head_hidden << '\n';
  os << "sample_len " << cfg.sample_len << '\n';
  os << "use_minmax_generator " << cfg.use_minmax_generator << '\n';
  os << "use_aux_discriminator " << cfg.use_aux_discriminator << '\n';
  os << "aux_alpha " << cfg.aux_alpha << '\n';
  os << "disc_hidden " << cfg.disc_hidden << '\n';
  os << "disc_layers " << cfg.disc_layers << '\n';
  os << "gp_weight " << cfg.gp_weight << '\n';
  os << "d_steps " << cfg.d_steps << '\n';
  os << "lr " << cfg.lr << '\n';
  os << "batch " << cfg.batch << '\n';
  os << "iterations " << cfg.iterations << '\n';
  os << "seed " << cfg.seed << '\n';
  os << "loss " << (cfg.loss == GanLoss::Standard ? 1 : 0) << '\n';
  os << kSectionEnd << '\n';
}

DoppelGangerConfig load_config(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kConfigMagic) {
    throw std::runtime_error("package: not a config section");
  }
  DoppelGangerConfig cfg;
  while (std::getline(is, line) && line != kSectionEnd) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "attr_noise_dim") ls >> cfg.attr_noise_dim;
    else if (key == "minmax_noise_dim") ls >> cfg.minmax_noise_dim;
    else if (key == "feat_noise_dim") ls >> cfg.feat_noise_dim;
    else if (key == "attr_hidden") ls >> cfg.attr_hidden;
    else if (key == "attr_layers") ls >> cfg.attr_layers;
    else if (key == "minmax_hidden") ls >> cfg.minmax_hidden;
    else if (key == "minmax_layers") ls >> cfg.minmax_layers;
    else if (key == "lstm_units") ls >> cfg.lstm_units;
    else if (key == "head_hidden") ls >> cfg.head_hidden;
    else if (key == "sample_len") ls >> cfg.sample_len;
    else if (key == "use_minmax_generator") ls >> cfg.use_minmax_generator;
    else if (key == "use_aux_discriminator") ls >> cfg.use_aux_discriminator;
    else if (key == "aux_alpha") ls >> cfg.aux_alpha;
    else if (key == "disc_hidden") ls >> cfg.disc_hidden;
    else if (key == "disc_layers") ls >> cfg.disc_layers;
    else if (key == "gp_weight") ls >> cfg.gp_weight;
    else if (key == "d_steps") ls >> cfg.d_steps;
    else if (key == "lr") ls >> cfg.lr;
    else if (key == "batch") ls >> cfg.batch;
    else if (key == "iterations") ls >> cfg.iterations;
    else if (key == "seed") ls >> cfg.seed;
    else if (key == "loss") {
      int v = 0;
      ls >> v;
      cfg.loss = v ? GanLoss::Standard : GanLoss::WassersteinGp;
    }
    else throw std::runtime_error("package: unknown config key '" + key + "'");
    if (!ls) throw std::runtime_error("package: bad value for '" + key + "'");
  }
  return cfg;
}

void save_package(std::ostream& os, const DoppelGanger& model) {
  os << kPackageMagic << '\n';
  // Schema section is terminated by a blank line (load_schema reads to EOF,
  // so we buffer it and write its length first).
  std::ostringstream schema_ss;
  data::save_schema(schema_ss, model.schema());
  const std::string schema_text = schema_ss.str();
  os << "schema_bytes " << schema_text.size() << '\n' << schema_text;
  save_config(os, model.config());
  model.save(os);
  if (!os) throw std::runtime_error("package: write failed");
}

std::unique_ptr<DoppelGanger> load_package(std::istream& is) {
  // The preflight is the one reader of the header, and it checks the whole
  // package against the config without building the model, so a config
  // whose sizes disagree with the weights never allocates at those sizes.
  PackagePreflight pf = preflight_package(is);
  if (!pf.ok) {
    throw std::runtime_error("package: preflight failed:\n" +
                             render_diagnostics(pf.diagnostics));
  }
  is.clear();
  is.seekg(pf.weights_at);
  auto model = std::make_unique<DoppelGanger>(std::move(pf.schema), pf.config);
  model->load(is);
  model->gen_tape_ = std::move(pf.tape_report);
  return model;
}

void save_package_file(const std::string& path, const DoppelGanger& model) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("package: cannot open " + path);
  save_package(os, model);
}

std::unique_ptr<DoppelGanger> load_package_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("package: cannot open " + path);
  return load_package(is);
}

}  // namespace core
