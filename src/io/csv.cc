#include "io/csv.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace iolap {

std::vector<std::string> ParseCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field.push_back(c);
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c != '\r') {
      field.push_back(c);
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

Result<StarSchema> LoadSchemaCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open schema file " + path);

  struct DimBuild {
    std::unique_ptr<HierarchyBuilder> builder;
    std::map<std::string, NodeId> nodes;
  };
  std::vector<std::string> dim_order;
  std::map<std::string, DimBuild> dims;

  std::string line;
  int64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields = ParseCsvLine(line);
    if (fields.size() != 3) {
      return Status::InvalidArgument("schema line " + std::to_string(lineno) +
                                     ": expected dimension,parent,node");
    }
    const std::string& dim = fields[0];
    const std::string& parent = fields[1];
    const std::string& node = fields[2];
    auto it = dims.find(dim);
    if (it == dims.end()) {
      dim_order.push_back(dim);
      DimBuild build;
      build.builder = std::make_unique<HierarchyBuilder>(dim);
      build.nodes["ALL"] = 0;
      it = dims.emplace(dim, std::move(build)).first;
    }
    DimBuild& build = it->second;
    NodeId parent_id = 0;
    if (!parent.empty() && parent != "ALL") {
      auto pit = build.nodes.find(parent);
      if (pit == build.nodes.end()) {
        return Status::InvalidArgument(
            "schema line " + std::to_string(lineno) + ": parent '" + parent +
            "' of '" + node + "' not seen yet (rows must be top-down)");
      }
      parent_id = pit->second;
    }
    if (build.nodes.count(node) != 0) {
      return Status::InvalidArgument("schema line " + std::to_string(lineno) +
                                     ": duplicate node '" + node + "'");
    }
    build.nodes[node] = build.builder->AddNode(parent_id, node);
  }
  if (dim_order.empty()) {
    return Status::InvalidArgument("schema file " + path + " has no rows");
  }
  std::vector<Hierarchy> hierarchies;
  for (const std::string& dim : dim_order) {
    IOLAP_ASSIGN_OR_RETURN(Hierarchy h, dims[dim].builder->Build());
    hierarchies.push_back(std::move(h));
  }
  return StarSchema::Create(std::move(hierarchies));
}

Result<TypedFile<FactRecord>> LoadFactsCsv(StorageEnv& env,
                                           const StarSchema& schema,
                                           const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open facts file " + path);
  const int k = schema.num_dims();

  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("facts file " + path + " is empty");
  }
  std::vector<std::string> header = ParseCsvLine(line);
  if (static_cast<int>(header.size()) != k + 2 || header[0] != "fact_id" ||
      header.back() != "measure") {
    return Status::InvalidArgument(
        "facts header must be fact_id,<dims...>,measure");
  }
  // Map header columns to schema dimensions by name.
  std::vector<int> column_dim(k, -1);
  for (int col = 0; col < k; ++col) {
    bool found = false;
    for (int d = 0; d < k; ++d) {
      if (schema.dim(d).dimension_name() == header[col + 1]) {
        column_dim[col] = d;
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("unknown dimension column '" +
                                     header[col + 1] + "'");
    }
  }

  IOLAP_ASSIGN_OR_RETURN(auto file,
                         TypedFile<FactRecord>::Create(env.disk(), "csv_facts"));
  auto appender = file.MakeAppender(env.pool());
  int64_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields = ParseCsvLine(line);
    if (static_cast<int>(fields.size()) != k + 2) {
      return Status::InvalidArgument("facts line " + std::to_string(lineno) +
                                     ": wrong field count");
    }
    FactRecord fact;
    fact.fact_id = std::strtoll(fields[0].c_str(), nullptr, 10);
    fact.measure = std::strtod(fields.back().c_str(), nullptr);
    for (int col = 0; col < k; ++col) {
      int d = column_dim[col];
      IOLAP_ASSIGN_OR_RETURN(NodeId node,
                             schema.dim(d).FindNode(fields[col + 1]));
      fact.node[d] = node;
      fact.level[d] = static_cast<uint8_t>(schema.dim(d).level(node));
    }
    IOLAP_RETURN_IF_ERROR(appender.Append(fact));
  }
  appender.Close();
  return file;
}

Status WriteEdbCsv(StorageEnv& env, const StarSchema& schema,
                   const TypedFile<EdbRecord>& edb, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open output file " + path);
  out << "fact_id";
  for (int d = 0; d < schema.num_dims(); ++d) {
    out << ',' << schema.dim(d).dimension_name();
  }
  out << ",weight,measure\n";
  auto cursor = edb.Scan(env.pool());
  EdbRecord rec;
  char buffer[64];
  while (!cursor.done()) {
    IOLAP_RETURN_IF_ERROR(cursor.Next(&rec));
    if (rec.IsTombstone()) continue;
    out << rec.fact_id;
    for (int d = 0; d < schema.num_dims(); ++d) {
      const Hierarchy& h = schema.dim(d);
      out << ',' << h.name(h.leaf_node(rec.leaf[d]));
    }
    std::snprintf(buffer, sizeof(buffer), ",%.*g,%.*g", 17, rec.weight, 17,
                  rec.measure);
    out << buffer << '\n';
  }
  if (!out) return Status::IoError("write to " + path + " failed");
  return Status::Ok();
}

}  // namespace iolap
