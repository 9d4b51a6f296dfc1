#include "osu/algo_flag.hpp"

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "coll/registry.hpp"
#include "mpi/datatype.hpp"
#include "sim/fault.hpp"

namespace hmca::osu {

namespace {

std::string load_fault_spec(const std::string& value) {
  if (value.empty() || value.front() != '@') return value;
  const std::string path = value.substr(1);
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("--faults: cannot read plan file '" + path +
                                "'");
  }
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

}  // namespace

AlgoFlag parse_algo_flag(int argc, char** argv) {
  Env::warn_unknown_once();
  AlgoFlag flag;
  bool stats_flag_seen = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* name, std::size_t eq_len) {
      std::string value;
      if (arg.size() == eq_len - 1) {  // bare flag: value in the next arg
        if (i + 1 >= argc) {
          throw std::invalid_argument(std::string(name) + " requires a value");
        }
        value = argv[++i];
      } else {
        value = arg.substr(eq_len);
      }
      if (value.empty()) {
        throw std::invalid_argument(std::string(name) + " requires a value");
      }
      return value;
    };
    if (arg == "--algo" || arg.rfind("--algo=", 0) == 0) {
      const std::string value = value_of("--algo (try --algo list)", 7);
      if (value == "list") {
        flag.list = true;
      } else {
        flag.name = value;
      }
    } else if (arg == "--faults" || arg.rfind("--faults=", 0) == 0) {
      flag.faults = load_fault_spec(value_of("--faults", 9));
    } else if (arg == "--topo" || arg.rfind("--topo=", 0) == 0) {
      flag.topo = value_of("--topo", 7);
    } else if (arg == "--stats") {  // bare flag: text report, no value taken
      flag.stats.enabled = true;
      flag.stats.format = StatsFormat::kText;
      stats_flag_seen = true;
    } else if (arg.rfind("--stats=", 0) == 0) {
      flag.stats.enabled = true;
      flag.stats.format = parse_stats_format(arg.substr(8), "--stats");
      stats_flag_seen = true;
    } else if (arg == "--trace" || arg.rfind("--trace=", 0) == 0) {
      flag.stats.trace_path = value_of("--trace", 8);
    } else if (arg == "--report" || arg.rfind("--report=", 0) == 0) {
      flag.stats.report_path = value_of("--report", 9);
    } else if (arg == "--json") {
      flag.json = true;
    }
  }
  if (flag.faults.empty()) {
    if (const auto env = Env::faults()) flag.faults = *env;
  }
  if (!stats_flag_seen) {
    if (const auto fmt = Env::stats()) {
      flag.stats.enabled = true;
      flag.stats.format = *fmt;
    }
  }
  // Fail on typos now, not inside the Nth measurement.
  sim::FaultPlan::parse(flag.faults);
  return flag;
}

hw::ClusterSpec with_faults(hw::ClusterSpec spec, const AlgoFlag& flag) {
  if (!flag.faults.empty()) spec.fault_plan = flag.faults;
  return spec;
}

hw::ClusterSpec with_topo_and_faults(hw::ClusterSpec spec,
                                     const AlgoFlag& flag) {
  return with_faults(hw::apply_topo(std::move(spec), flag.topo), flag);
}

void print_algo_list(std::ostream& os) {
  const auto& reg = coll::Registry::instance();
  const auto section = [&os](const char* title, const auto& entries) {
    os << title << ":\n";
    for (const auto& a : entries) {
      os << "  " << a.name;
      for (std::size_t i = a.name.size(); i < 18; ++i) os << ' ';
      os << a.summary << '\n';
    }
  };
  section("allgather", reg.allgathers());
  section("allreduce", reg.allreduces());
  section("alltoall", reg.alltoalls());
  section("alltoallv", reg.alltoallvs());
  section("reduce_scatter", reg.reduce_scatters());
  section("bcast", reg.bcasts());
  section("allgatherv", reg.allgathervs());
}

namespace {

[[noreturn]] void inapplicable(const char* what, const std::string& name,
                               const coll::CommShape& s) {
  throw std::invalid_argument(
      std::string("--algo ") + name + ": " + what +
      " is not applicable to this communicator (size=" +
      std::to_string(s.comm_size) + ", nodes=" + std::to_string(s.nodes) +
      ", ppn=" + std::to_string(s.ppn) + ")");
}

}  // namespace

coll::AllgatherFn pinned_allgather(const std::string& name) {
  const auto& a = coll::Registry::instance().get_allgather(name);
  return [&a, name](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv,
                    std::size_t m, bool ip) {
    if (a.applies && !a.applies(coll::CommShape::of(c), m)) {
      inapplicable("allgather", name, coll::CommShape::of(c));
    }
    return a.fn(c, my, s, rv, m, ip);
  };
}

coll::AllreduceFn pinned_allreduce(const std::string& name) {
  const auto& a = coll::Registry::instance().get_allreduce(name);
  return [&a, name](mpi::Comm& c, int my, hw::BufView d, std::size_t n,
                    mpi::Dtype t, mpi::ReduceOp op) {
    if (a.applies && !a.applies(coll::CommShape::of(c), n, mpi::dtype_size(t))) {
      inapplicable("allreduce", name, coll::CommShape::of(c));
    }
    return a.fn(c, my, d, n, t, op);
  };
}

coll::AlltoallFn pinned_alltoall(const std::string& name) {
  const auto& a = coll::Registry::instance().get_alltoall(name);
  return [&a, name](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv,
                    std::size_t m) {
    if (a.applies && !a.applies(coll::CommShape::of(c), m)) {
      inapplicable("alltoall", name, coll::CommShape::of(c));
    }
    return a.fn(c, my, s, rv, m);
  };
}

coll::ReduceScatterFn pinned_reduce_scatter(const std::string& name) {
  const auto& a = coll::Registry::instance().get_reduce_scatter(name);
  return [&a, name](mpi::Comm& c, int my, hw::BufView d, std::size_t n,
                    mpi::Dtype t, mpi::ReduceOp op) {
    if (a.applies && !a.applies(coll::CommShape::of(c), n, mpi::dtype_size(t))) {
      inapplicable("reduce_scatter", name, coll::CommShape::of(c));
    }
    return a.fn(c, my, d, n, t, op);
  };
}

}  // namespace hmca::osu
