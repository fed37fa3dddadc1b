// Scale benchmark for the channel hot path (DESIGN.md section 11): drives
// raw channel traffic — no protocol above it — on uniform-random fields of
// 1k/10k/100k nodes at constant density, static and mobile, and reports
// events/sec plus peak RSS per case. Each case runs in a forked child so
// VmHWM measures that case alone.
//
// Mobile cases end with a repair-locality probe: every row is built, one
// node hops, and every row is asked for again. Only rows near the hop's
// two endpoints may be rebuilt; a whole-cache discard would rebuild all N.
//
// `bench_scale --perf-json[=DIR]` writes machine-readable BENCH_scale.json
// (committed, so the scale trajectory is visible across PRs) and exits
// non-zero unless the 100k static case completed and the 10k mobile probe
// rebuilt at most N/20 rows. `bench_scale --smoke` is the CI entry: one
// bounded 10k mobile case under whatever sanitizer the build carries,
// asserting the incremental-repair machinery engaged and stayed local.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <chrono>
#ifdef __linux__
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "energy/energy_meter.hpp"
#include "net/channel.hpp"
#include "net/link_model.hpp"
#include "net/packet.hpp"
#include "net/radio.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace mnp;

// Constant density: ~12 expected nodes inside the 37.5 ft interference
// disc (25 ft disk range x 1.5 interference factor), independent of n.
constexpr double kRangeFt = 25.0;
constexpr double kInterference = 1.5;
constexpr double kDensityPerSqFt =
    12.0 / (3.14159265358979323846 * 37.5 * 37.5);

struct CaseSpec {
  std::size_t nodes = 0;
  bool mobile = false;
  int bursts = 0;
  std::uint64_t seed = 1;
};

struct CaseStats {
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  std::uint64_t cache_repairs = 0;
  std::uint64_t cache_invalidations = 0;
  std::uint64_t grid_cells = 0;
  std::uint64_t grid_max_occupancy = 0;
  std::uint64_t repairs_per_hop = 0;  // mobile cases: the locality probe
  long vm_hwm_kb = -1;
  int completed = 0;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

net::Packet data_packet() {
  net::Packet pkt;
  net::DataMsg d;
  d.payload.assign(22, 1);
  pkt.payload = std::move(d);
  return pkt;
}

long read_vm_hwm_kb() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof line, f)) {
    if (!std::strncmp(line, "VmHWM:", 6)) {
      kb = std::strtol(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  return -1;
#endif
}

/// Repair-locality probe: with every row warm, one node hops and every
/// row is asked for again. Returns how many rows that rebuilt.
std::uint64_t repairs_per_hop(const net::Channel& channel, net::Topology& topo,
                              double extent) {
  const auto touch_all = [&] {
    for (std::size_t i = 0; i < topo.size(); ++i) {
      channel.neighbor_row_for_test(1.0, static_cast<net::NodeId>(i));
    }
  };
  touch_all();
  const std::uint64_t before = channel.cache_repairs();
  topo.set_position(0, {extent / 2.0, extent / 2.0});
  touch_all();
  return channel.cache_repairs() - before;
}

CaseStats run_case_inproc(const CaseSpec& spec) {
  const double extent =
      std::sqrt(static_cast<double>(spec.nodes) / kDensityPerSqFt);
  sim::Simulator sim(spec.seed);
  sim::Rng place(1234 + spec.seed);
  net::Topology topo;
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    topo.add({place.uniform_real(0.0, extent), place.uniform_real(0.0, extent)});
  }
  net::DiskLinkModel links(topo, kRangeFt, kInterference);
  net::Channel channel(sim, topo, links);
  std::vector<std::unique_ptr<energy::EnergyMeter>> meters;
  std::vector<std::unique_ptr<net::Radio>> radios;
  meters.reserve(spec.nodes);
  radios.reserve(spec.nodes);
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    meters.push_back(std::make_unique<energy::EnergyMeter>());
    radios.push_back(std::make_unique<net::Radio>(
        static_cast<net::NodeId>(i), sim.scheduler(), channel, *meters[i]));
    channel.register_radio(*radios[i]);
    radios[i]->turn_on();
  }

  // Traffic: every 100 ms, 8 scattered sources broadcast one data packet
  // (staggered inside the burst so transmissions overlap and the
  // cross-corruption loops run). Mobile cases additionally teleport 1% of
  // the nodes per burst — the same Topology::set_position churn the
  // scenario engine's waypoint interpolation produces.
  sim::Rng traffic(4242 + spec.seed);
  const net::Packet pkt = data_packet();
  const auto n64 = static_cast<std::int64_t>(spec.nodes);
  net::Topology* topo_ptr = &topo;
  const std::size_t movers =
      std::max<std::size_t>(1, spec.nodes / 100);
  for (int burst = 0; burst < spec.bursts; ++burst) {
    const auto t0 = static_cast<sim::Time>(burst) * 100000;
    for (int k = 0; k < 8; ++k) {
      const auto src = static_cast<net::NodeId>(traffic.uniform_int(0, n64 - 1));
      net::Radio* radio = radios[src].get();
      sim.scheduler().schedule_at(t0 + static_cast<sim::Time>(k) * 500,
                                  [radio, pkt] {
                                    net::Packet copy = pkt;
                                    radio->start_transmission(std::move(copy));
                                  });
    }
    if (spec.mobile) {
      std::vector<std::pair<net::NodeId, net::Position>> hops;
      hops.reserve(movers);
      for (std::size_t m = 0; m < movers; ++m) {
        hops.emplace_back(
            static_cast<net::NodeId>(traffic.uniform_int(0, n64 - 1)),
            net::Position{traffic.uniform_real(0.0, extent),
                          traffic.uniform_real(0.0, extent)});
      }
      sim.scheduler().schedule_at(t0 + 50000, [topo_ptr, hops] {
        for (const auto& [id, to] : hops) topo_ptr->set_position(id, to);
      });
    }
  }

  const auto start = std::chrono::steady_clock::now();
  sim.run_until(static_cast<sim::Time>(spec.bursts) * 100000 + 1000000);
  CaseStats s;
  s.wall_ms = ms_since(start);
  s.events = sim.scheduler().executed_events();
  s.transmissions = channel.transmissions();
  s.deliveries = channel.deliveries();
  s.collisions = channel.collisions();
  s.cache_repairs = channel.cache_repairs();
  s.cache_invalidations = channel.cache_invalidations();
  s.grid_cells = channel.grid_cells();
  s.grid_max_occupancy = channel.grid_max_occupancy();
  // "Completed" = the event loop drained the whole schedule and traffic
  // actually flowed. A case that dies (OOM) never returns at all — the
  // fork protocol in run_case reports that as a failure.
  s.completed = channel.transmissions() > 0 ? 1 : 0;
  // Peak RSS of the run itself, before the probe below builds every row.
  s.vm_hwm_kb = read_vm_hwm_kb();
  if (spec.mobile) s.repairs_per_hop = repairs_per_hop(channel, topo, extent);
  return s;
}

/// Runs the case in a forked child so VmHWM is this case's own high-water
/// mark, not the max over every case the process ran before it.
CaseStats run_case(const CaseSpec& spec) {
#ifdef __linux__
  int fds[2];
  if (pipe(fds) == 0) {
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      const CaseStats s = run_case_inproc(spec);
      ssize_t written = 0;
      const char* p = reinterpret_cast<const char*>(&s);
      while (written < static_cast<ssize_t>(sizeof s)) {
        const ssize_t w = write(fds[1], p + written, sizeof(s) - written);
        if (w <= 0) break;
        written += w;
      }
      close(fds[1]);
      _exit(0);
    }
    if (pid > 0) {
      close(fds[1]);
      CaseStats s;
      char* p = reinterpret_cast<char*>(&s);
      ssize_t got = 0;
      while (got < static_cast<ssize_t>(sizeof s)) {
        const ssize_t r = read(fds[0], p + got, sizeof(s) - got);
        if (r <= 0) break;
        got += r;
      }
      close(fds[0]);
      int status = 0;
      waitpid(pid, &status, 0);
      if (got == static_cast<ssize_t>(sizeof s) && WIFEXITED(status) &&
          WEXITSTATUS(status) == 0) {
        return s;
      }
      std::fprintf(stderr, "bench_scale: forked case failed, rerunning inline\n");
    } else {
      close(fds[0]);
      close(fds[1]);
    }
  }
#endif
  return run_case_inproc(spec);
}

const char* mode_name(const CaseSpec& s) { return s.mobile ? "mobile" : "static"; }

void print_case(const CaseSpec& spec, const CaseStats& s) {
  std::printf(
      "%7zu nodes  %-6s  %8.1f ms  %10.0f events/s  rss %6.1f MB  "
      "tx %llu del %llu repairs %llu inval %llu repairs/hop %llu\n",
      spec.nodes, mode_name(spec), s.wall_ms,
      s.wall_ms > 0.0 ? static_cast<double>(s.events) / (s.wall_ms / 1000.0)
                      : 0.0,
      static_cast<double>(s.vm_hwm_kb) / 1024.0,
      static_cast<unsigned long long>(s.transmissions),
      static_cast<unsigned long long>(s.deliveries),
      static_cast<unsigned long long>(s.cache_repairs),
      static_cast<unsigned long long>(s.cache_invalidations),
      static_cast<unsigned long long>(s.repairs_per_hop));
}

double events_per_sec(const CaseStats& s) {
  return s.wall_ms > 0.0
             ? static_cast<double>(s.events) / (s.wall_ms / 1000.0)
             : 0.0;
}

void write_case_json(std::FILE* f, const CaseSpec& spec, const CaseStats& s,
                     bool last) {
  std::fprintf(
      f,
      "    {\"nodes\": %zu, \"mode\": \"%s\", "
      "\"bursts\": %d, \"wall_ms\": %.1f, \"events\": %llu, "
      "\"events_per_sec\": %.0f, \"peak_rss_mb\": %.1f, "
      "\"transmissions\": %llu, \"deliveries\": %llu, "
      "\"cache_repairs\": %llu, \"cache_invalidations\": %llu, "
      "\"grid_cells\": %llu, \"grid_max_occupancy\": %llu, "
      "\"repairs_per_hop\": %llu, \"completed\": %s}%s\n",
      spec.nodes, mode_name(spec), spec.bursts, s.wall_ms,
      static_cast<unsigned long long>(s.events), events_per_sec(s),
      static_cast<double>(s.vm_hwm_kb) / 1024.0,
      static_cast<unsigned long long>(s.transmissions),
      static_cast<unsigned long long>(s.deliveries),
      static_cast<unsigned long long>(s.cache_repairs),
      static_cast<unsigned long long>(s.cache_invalidations),
      static_cast<unsigned long long>(s.grid_cells),
      static_cast<unsigned long long>(s.grid_max_occupancy),
      static_cast<unsigned long long>(s.repairs_per_hop),
      s.completed ? "true" : "false", last ? "" : ",");
}

/// The locality gate: one hop may rebuild at most N/20 rows.
bool repairs_stay_local(const CaseSpec& spec, const CaseStats& s) {
  return s.repairs_per_hop > 0 && s.repairs_per_hop <= spec.nodes / 20;
}

int run_perf_json(const std::string& dir) {
  const std::vector<CaseSpec> specs = {
      {1000, false, 200, 1},  {1000, true, 200, 1},  {10000, false, 100, 1},
      {10000, true, 30, 1},   {100000, false, 100, 1}, {100000, true, 20, 1},
  };
  std::vector<CaseStats> stats;
  stats.reserve(specs.size());
  for (const CaseSpec& spec : specs) {
    std::printf("bench_scale: %zu nodes %s...\n", spec.nodes, mode_name(spec));
    std::fflush(stdout);
    stats.push_back(run_case(spec));
    print_case(spec, stats.back());
  }

  std::uint64_t hop_10k = 0;
  bool local_10k = false;
  double rss_100k_mb = 0.0;
  bool completed_100k = false;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].nodes == 10000 && specs[i].mobile) {
      hop_10k = stats[i].repairs_per_hop;
      local_10k = repairs_stay_local(specs[i], stats[i]);
    }
    if (specs[i].nodes == 100000 && !specs[i].mobile) {
      completed_100k = stats[i].completed != 0 && stats[i].deliveries > 0;
      rss_100k_mb = static_cast<double>(stats[i].vm_hwm_kb) / 1024.0;
    }
  }

  const std::string path = dir + "/BENCH_scale.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"scale\",\n"
               "  \"links\": \"disk r=25ft x1.5, ~12 nodes per "
               "interference disc\",\n"
               "  \"workload\": \"8 staggered broadcasts per 100ms burst; "
               "mobile: 1%% of nodes rehomed per burst\",\n"
               "  \"cases\": [\n");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    write_case_json(f, specs[i], stats[i], i + 1 == specs.size());
  }
  std::fprintf(f,
               "  ],\n"
               "  \"mobile_10k_repairs_per_hop\": %llu,\n"
               "  \"static_100k_peak_rss_mb\": %.1f,\n"
               "  \"completed_100k_static\": %s\n"
               "}\n",
               static_cast<unsigned long long>(hop_10k), rss_100k_mb,
               completed_100k ? "true" : "false");
  std::fclose(f);
  std::printf("bench_scale: %s (mobile 10k repairs/hop %llu, 100k static %s)\n",
              path.c_str(), static_cast<unsigned long long>(hop_10k),
              completed_100k ? "completed" : "FAILED");

  if (!completed_100k) {
    std::fprintf(stderr, "bench_scale: 100k static case did not complete\n");
    return 1;
  }
  if (!local_10k) {
    std::fprintf(stderr,
                 "bench_scale: one hop rebuilt %llu of 10000 rows (want 1..500)\n",
                 static_cast<unsigned long long>(hop_10k));
    return 1;
  }
  return 0;
}

int run_smoke() {
  // CI entry (sanitizer-friendly wall budget): one bounded 10k mobile case,
  // in-process. Checks that the run produced traffic and that the
  // incremental-repair machinery — not whole-cache discard — is what
  // serviced the mobility churn.
  CaseSpec spec;
  spec.nodes = 10000;
  spec.mobile = true;
  spec.bursts = 10;
  const CaseStats s = run_case_inproc(spec);
  print_case(spec, s);
  if (s.transmissions == 0 || s.deliveries == 0) {
    std::fprintf(stderr, "bench_scale --smoke: no traffic flowed\n");
    return 1;
  }
  if (s.cache_invalidations == 0 || s.cache_repairs == 0) {
    std::fprintf(stderr,
                 "bench_scale --smoke: incremental repair never engaged\n");
    return 1;
  }
  if (s.grid_cells == 0) {
    std::fprintf(stderr, "bench_scale --smoke: spatial grid never built\n");
    return 1;
  }
  if (!repairs_stay_local(spec, s)) {
    std::fprintf(stderr, "bench_scale --smoke: one hop rebuilt %llu rows\n",
                 static_cast<unsigned long long>(s.repairs_per_hop));
    return 1;
  }
  std::printf("bench_scale --smoke: OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (!std::strncmp(argv[i], "--perf-json", 11)) {
      const char* eq = std::strchr(argv[i], '=');
      return run_perf_json(eq ? eq + 1 : ".");
    }
    if (!std::strcmp(argv[i], "--smoke")) return run_smoke();
  }
  // Default: the quick human-readable subset.
  for (const CaseSpec& spec :
       std::vector<CaseSpec>{{1000, false, 100, 1}, {1000, true, 100, 1}}) {
    print_case(spec, run_case(spec));
  }
  return 0;
}
