// Runner of the end-to-end benchmark. One invocation runs one workload:
//
//   perfbench_runner --workload=<name> --seed=<n> --seconds=<s>
//                    --trace=<0|1> --work=<dir> --out=<report.json>
//                    [--trace-out=<chrome-trace.json>]
//
// and writes a JSON report with every metric it measured, the operation
// tally and any correctness or shape failures. run.py builds this binary,
// runs it and turns the report into the benchmark's result line.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "common.h"

namespace perfbench {

namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

bool Report::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"correct\": ";
  out += (shape_ok_ && failed_ == 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"notes\": [";
  for (size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) out += ", ";
    AppendJsonString(&out, notes_[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(&out, name);
    char buf[40];
    // JSON has no NaN/inf; a non-finite metric is a runner bug, so make it
    // visible rather than silently zero.
    std::snprintf(buf, sizeof(buf), ": %.17g", std::isfinite(value) ? value : -1);
    out += buf;
  }
  out += "}}\n";
  std::ofstream file(path);
  file << out;
  return static_cast<bool>(file);
}

std::string MakeEnvDir(const Options& options, const char* tag) {
  std::string tmpl = options.work_dir + "/" + tag + "_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::fprintf(stderr, "cannot create a directory under %s\n",
                 options.work_dir.c_str());
    std::exit(1);
  }
  return tmpl;
}

}  // namespace perfbench

namespace {

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (Flag(argv[i], "--workload", &v)) {
      options.workload = v;
    } else if (Flag(argv[i], "--seed", &v)) {
      options.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &v)) {
      options.seconds = std::strtod(v.c_str(), nullptr);
    } else if (Flag(argv[i], "--trace", &v)) {
      options.trace = v == "1";
    } else if (Flag(argv[i], "--work", &v)) {
      options.work_dir = v;
    } else if (Flag(argv[i], "--trace-out", &v)) {
      options.trace_path = v;
    } else if (Flag(argv[i], "--out", &v)) {
      out_path = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (options.work_dir.empty() || out_path.empty() || options.seconds <= 0 ||
      (options.trace && options.trace_path.empty())) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload=W --seed=N --seconds=S "
                 "--trace=0|1 --work=DIR --out=FILE [--trace-out=FILE]\n");
    return 2;
  }

  perfbench::Report report;
  int rc = 0;
  if (options.workload.rfind("alloc_", 0) == 0) {
    rc = perfbench::RunAllocWorkload(options, &report);
  } else if (options.workload.rfind("serve_", 0) == 0) {
    rc = perfbench::RunServeWorkload(options, &report);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  // Peak RSS of this process only: every workload runs in its own runner
  // process, so no workload's memory counts toward another's.
  report.Set("peak_rss_mb", perfbench::Usage::Now().max_rss_mb);
  if (!report.WriteJson(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
