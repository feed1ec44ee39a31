#include "data/io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace dg::data {

namespace {

constexpr const char* kSchemaMagic = "doppelganger-schema v1";

void check_token(const std::string& token) {
  if (token.empty() ||
      token.find_first_of(", \t\r\n") != std::string::npos) {
    throw std::invalid_argument("io: names/labels must be non-empty and free "
                                "of commas/whitespace: '" + token + "'");
  }
}

void write_field(std::ostream& os, const char* kind, const FieldSpec& f) {
  check_token(f.name);
  if (f.type == FieldType::Categorical) {
    os << kind << " categorical " << f.name;
    for (const std::string& l : f.labels) {
      check_token(l);
      os << ' ' << l;
    }
    os << '\n';
  } else {
    os << kind << " continuous " << f.name << ' ' << f.lo << ' ' << f.hi << '\n';
  }
}

FieldSpec parse_field(std::istringstream& line) {
  std::string type, name;
  line >> type >> name;
  if (type == "categorical") {
    std::vector<std::string> labels;
    std::string l;
    while (line >> l) labels.push_back(l);
    if (labels.empty()) throw std::runtime_error("io: categorical field without labels");
    return categorical_field(name, labels);
  }
  if (type == "continuous") {
    float lo = 0, hi = 0;
    if (!(line >> lo >> hi)) throw std::runtime_error("io: bad continuous range");
    return continuous_field(name, lo, hi);
  }
  throw std::runtime_error("io: unknown field type '" + type + "'");
}

// A name keys a field on the wire and in `fixed`/`where`, and a label names
// its category: with a repeat, one of the two could never be named.
void check_unique_names(const Schema& s) {
  std::set<std::string_view> names;
  for (const auto* fields : {&s.attributes, &s.features}) {
    for (const FieldSpec& f : *fields) {
      if (!names.insert(f.name).second) {
        throw std::runtime_error("io: repeated field name '" + f.name + "'");
      }
      std::set<std::string_view> labels;
      for (const std::string& l : f.labels) {
        if (!labels.insert(l).second) {
          throw std::runtime_error("io: repeated label '" + l +
                                   "' in field '" + f.name + "'");
        }
      }
    }
  }
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::string cell;
  std::istringstream ss(line);
  while (std::getline(ss, cell, ',')) out.push_back(cell);
  return out;
}

int label_index(const FieldSpec& spec, const std::string& cell) {
  const auto it = std::find(spec.labels.begin(), spec.labels.end(), cell);
  if (it == spec.labels.end()) {
    throw std::runtime_error("io: unknown label '" + cell + "' for field '" +
                             spec.name + "'");
  }
  return static_cast<int>(it - spec.labels.begin());
}

}  // namespace

void save_schema(std::ostream& os, const Schema& schema) {
  os << kSchemaMagic << '\n';
  check_token(schema.name.empty() ? std::string("unnamed") : schema.name);
  os << "name " << (schema.name.empty() ? "unnamed" : schema.name) << '\n';
  os << "max_timesteps " << schema.max_timesteps << '\n';
  for (const FieldSpec& a : schema.attributes) write_field(os, "attribute", a);
  for (const FieldSpec& f : schema.features) write_field(os, "feature", f);
  if (!os) throw std::runtime_error("io: schema write failed");
}

Schema load_schema(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kSchemaMagic) {
    throw std::runtime_error("io: not a schema file");
  }
  Schema s;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "name") {
      ls >> s.name;
    } else if (key == "max_timesteps") {
      ls >> s.max_timesteps;
    } else if (key == "attribute") {
      s.attributes.push_back(parse_field(ls));
    } else if (key == "feature") {
      s.features.push_back(parse_field(ls));
    } else {
      throw std::runtime_error("io: unknown schema key '" + key + "'");
    }
  }
  if (s.max_timesteps <= 0 || s.features.empty()) {
    throw std::runtime_error("io: schema missing max_timesteps or features");
  }
  check_unique_names(s);
  return s;
}

void save_csv(std::ostream& os, const Schema& schema, const Dataset& data) {
  validate(schema, data);
  os << "object_id";
  for (const FieldSpec& a : schema.attributes) os << ',' << a.name;
  os << ",t";
  for (const FieldSpec& f : schema.features) os << ',' << f.name;
  os << '\n';
  for (size_t i = 0; i < data.size(); ++i) {
    const Object& o = data[i];
    std::ostringstream attrs;
    for (size_t j = 0; j < schema.attributes.size(); ++j) {
      const FieldSpec& a = schema.attributes[j];
      attrs << ',';
      if (a.type == FieldType::Categorical) {
        attrs << a.labels[static_cast<size_t>(o.attributes[j])];
      } else {
        attrs << o.attributes[j];
      }
    }
    for (int t = 0; t < o.length(); ++t) {
      os << i << attrs.str() << ',' << t;
      for (float v : o.features[static_cast<size_t>(t)]) os << ',' << v;
      os << '\n';
    }
  }
  if (!os) throw std::runtime_error("io: csv write failed");
}

Dataset load_csv(std::istream& is, const Schema& schema) {
  std::string line;
  if (!std::getline(is, line)) throw std::runtime_error("io: empty csv");
  const auto header = split_csv(line);
  const size_t m = schema.attributes.size();
  const size_t k = schema.features.size();
  if (header.size() != 2 + m + k) {
    throw std::runtime_error("io: csv header does not match schema arity");
  }

  Dataset out;
  long current_id = -1;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto cells = split_csv(line);
    if (cells.size() != 2 + m + k) {
      throw std::runtime_error("io: csv row arity mismatch: " + line);
    }
    const long id = std::stol(cells[0]);
    if (id != current_id) {
      if (id != static_cast<long>(out.size())) {
        throw std::runtime_error("io: object ids must be dense and ordered");
      }
      current_id = id;
      Object o;
      for (size_t j = 0; j < m; ++j) {
        const FieldSpec& a = schema.attributes[j];
        o.attributes.push_back(
            a.type == FieldType::Categorical
                ? static_cast<float>(label_index(a, cells[1 + j]))
                : std::stof(cells[1 + j]));
      }
      out.push_back(std::move(o));
    }
    std::vector<float> rec;
    rec.reserve(k);
    for (size_t f = 0; f < k; ++f) {
      rec.push_back(std::stof(cells[2 + m + f]));
    }
    out.back().features.push_back(std::move(rec));
  }
  validate(schema, out);
  return out;
}

void save_schema_file(const std::string& path, const Schema& schema) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("io: cannot open " + path);
  save_schema(os, schema);
}

Schema load_schema_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("io: cannot open " + path);
  return load_schema(is);
}

void save_csv_file(const std::string& path, const Schema& schema,
                   const Dataset& data) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("io: cannot open " + path);
  save_csv(os, schema, data);
}

Dataset load_csv_file(const std::string& path, const Schema& schema) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("io: cannot open " + path);
  return load_csv(is, schema);
}

namespace {
constexpr const char* kBinaryMagic = "doppelganger-bin v1";

template <typename T>
void write_raw(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
T read_raw(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("io: truncated binary dataset");
  return v;
}
}  // namespace

void save_binary(std::ostream& os, const Schema& schema, const Dataset& data) {
  validate(schema, data);
  os << kBinaryMagic << '\n';
  write_raw<uint64_t>(os, data.size());
  const size_t k = schema.features.size();
  for (const Object& o : data) {
    os.write(reinterpret_cast<const char*>(o.attributes.data()),
             static_cast<std::streamsize>(o.attributes.size() * sizeof(float)));
    write_raw<uint32_t>(os, static_cast<uint32_t>(o.features.size()));
    for (const auto& rec : o.features) {
      os.write(reinterpret_cast<const char*>(rec.data()),
               static_cast<std::streamsize>(k * sizeof(float)));
    }
  }
  if (!os) throw std::runtime_error("io: binary write failed");
}

Dataset load_binary(std::istream& is, const Schema& schema) {
  std::string magic;
  if (!std::getline(is, magic) || magic != kBinaryMagic) {
    throw std::runtime_error("io: not a doppelganger binary dataset");
  }
  const uint64_t n = read_raw<uint64_t>(is);
  const size_t m = schema.attributes.size();
  const size_t k = schema.features.size();
  Dataset out;
  out.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    Object o;
    o.attributes.resize(m);
    is.read(reinterpret_cast<char*>(o.attributes.data()),
            static_cast<std::streamsize>(m * sizeof(float)));
    if (!is) throw std::runtime_error("io: truncated binary dataset");
    const uint32_t t = read_raw<uint32_t>(is);
    if (static_cast<int>(t) > schema.max_timesteps) {
      throw std::runtime_error("io: binary dataset series exceeds schema max");
    }
    o.features.resize(t);
    for (auto& rec : o.features) {
      rec.resize(k);
      is.read(reinterpret_cast<char*>(rec.data()),
              static_cast<std::streamsize>(k * sizeof(float)));
      if (!is) throw std::runtime_error("io: truncated binary dataset");
    }
    out.push_back(std::move(o));
  }
  validate(schema, out);
  return out;
}

void save_binary_file(const std::string& path, const Schema& schema,
                      const Dataset& data) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("io: cannot open " + path);
  save_binary(os, schema, data);
}

Dataset load_binary_file(const std::string& path, const Schema& schema) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("io: cannot open " + path);
  return load_binary(is, schema);
}

}  // namespace dg::data
