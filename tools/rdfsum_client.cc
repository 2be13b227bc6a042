// rdfsum_client — wire-protocol client for a running `rdfsum serve` daemon
// (docs/PROTOCOL.md).
//
//   rdfsum_client query    <host:port> <sparql...> [--plan naive|greedy|summary]
//                          [--limit N] [--offset N] [--timeout-ms N]
//                          [--max-rows N] [--cancel-after N]
//   rdfsum_client stats    <host:port>
//   rdfsum_client reload   <host:port> [image.rsb]
//   rdfsum_client shutdown <host:port>
//
// Exit codes mirror rdfsum's classes so scripts treat local and remote
// failures uniformly: 0 ok; 1 other failure; 2 usage; 3 bad input data /
// transport (refused connection, malformed server response, corrupt image);
// 4 resource-governance trip (timeout, cancellation, row budget, admission
// rejection). A refused connection or a malformed response is NEVER exit 0.

#include <cstdint>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "query/plan.h"
#include "server/client.h"
#include "util/status.h"
#include "util/string_util.h"

namespace rdfsum {
namespace {

constexpr int kExitUsage = 2;
constexpr int kExitData = 3;
constexpr int kExitBudget = 4;

/// Same classification as rdfsum's ExitCodeFor: governance codes -> 4,
/// input/transport codes -> 3, anything else non-OK -> 1.
int ExitCodeFor(const Status& st) {
  if (st.ok()) return 0;
  if (st.IsDeadlineExceeded() || st.IsCancelled() || st.IsResourceExhausted()) {
    return kExitBudget;
  }
  if (st.IsInvalidArgument() || st.IsCorruption() || st.IsIOError() ||
      st.IsNotFound() || st.IsNotSupported()) {
    return kExitData;
  }
  return 1;
}

int FailStatus(const Status& st) {
  std::cerr << "rdfsum_client: " << st.ToString() << "\n";
  return ExitCodeFor(st);
}

int Usage() {
  std::cerr <<
      "usage:\n"
      "  rdfsum_client query    <host:port> <sparql string>\n"
      "                         [--plan naive|greedy|summary] [--limit N]\n"
      "                         [--offset N] [--timeout-ms N] [--max-rows N]\n"
      "                         [--cancel-after N]\n"
      "  rdfsum_client stats    <host:port>\n"
      "  rdfsum_client reload   <host:port> [image.rsb]\n"
      "  rdfsum_client shutdown <host:port>\n"
      "\n"
      "exit codes: 0 ok; 1 other failure; 2 usage; 3 transport/data error\n"
      "  (connection refused, malformed response, corrupt image); 4 budget\n"
      "  trip (timeout, cancellation, row budget, server at capacity)\n";
  return kExitUsage;
}

bool SplitHostPort(const std::string& arg, std::string* host,
                   uint16_t* port) {
  size_t colon = arg.rfind(':');
  if (colon == std::string::npos || colon + 1 >= arg.size()) return false;
  uint64_t p = 0;
  if (!ParseDecimal(std::string_view(arg).substr(colon + 1), 0xFFFF, &p) ||
      p == 0) {
    return false;
  }
  *host = arg.substr(0, colon);
  *port = static_cast<uint16_t>(p);
  return true;
}

int Run(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string cmd = argv[1];
  std::string host;
  uint16_t port = 0;
  if (!SplitHostPort(argv[2], &host, &port)) {
    std::cerr << "rdfsum_client: bad <host:port> " << argv[2] << "\n";
    return kExitUsage;
  }
  std::vector<std::string> args(argv + 3, argv + argc);

  if (cmd == "query") {
    server::QueryRequest req;
    uint64_t cancel_after = 0, timeout_ms = 0;
    // The numeric options, each with the largest value its field holds. A
    // malformed or out-of-range value is a usage error before any connect.
    struct NumericOption {
      const char* name;
      uint64_t max;
      uint64_t* value;
    };
    const NumericOption numeric[] = {
        {"--limit", UINT64_MAX, &req.limit},
        {"--offset", UINT64_MAX, &req.offset},
        {"--timeout-ms", UINT32_MAX, &timeout_ms},
        {"--max-rows", UINT64_MAX, &req.max_rows},
        {"--cancel-after", UINT64_MAX, &cancel_after},
    };
    std::vector<std::string> positional;
    for (size_t i = 0; i < args.size(); ++i) {
      const NumericOption* num = nullptr;
      for (const NumericOption& n : numeric) {
        if (args[i] == n.name) num = &n;
      }
      if (num != nullptr) {
        if (i + 1 >= args.size()) {
          std::cerr << "rdfsum_client: " << args[i] << " needs a value\n";
          return kExitUsage;
        }
        if (!ParseDecimal(args[i + 1], num->max, num->value)) {
          std::cerr << "rdfsum_client: bad " << args[i] << " " << args[i + 1]
                    << "\n";
          return kExitUsage;
        }
        ++i;
      } else if (args[i] == "--plan" && i + 1 < args.size()) {
        query::PlannerMode mode;
        if (!query::ParsePlannerMode(args[++i], &mode)) {
          std::cerr << "rdfsum_client: bad --plan " << args[i] << "\n";
          return kExitUsage;
        }
        req.planner = static_cast<uint8_t>(mode);
      } else if (args[i].rfind("--", 0) == 0) {
        std::cerr << "rdfsum_client: unknown option " << args[i] << "\n";
        return kExitUsage;
      } else {
        positional.push_back(args[i]);
      }
    }
    req.timeout_ms = static_cast<uint32_t>(timeout_ms);
    if (positional.empty()) return Usage();
    std::string sparql;
    for (const std::string& p : positional) {
      sparql += (sparql.empty() ? "" : " ") + p;
    }
    auto client = server::Client::Connect(host, port);
    if (!client.ok()) return FailStatus(client.status());
    uint64_t rows = 0, printed = 0;
    Status st = (*client)->Query(
        sparql, req,
        [&](const std::vector<std::string>& cols) {
          for (size_t i = 0; i < cols.size(); ++i) {
            if (i > 0) std::cout << "\t";
            std::cout << cols[i];
          }
          std::cout << "\n";
          ++printed;
          return cancel_after == 0 || printed < cancel_after;
        },
        &rows);
    if (!st.ok()) return FailStatus(st);
    std::cout << "-- " << rows << " row(s) (epoch "
              << (*client)->server_epoch() << ")\n";
    return 0;
  }

  if (cmd == "stats") {
    if (!args.empty()) return Usage();
    auto client = server::Client::Connect(host, port);
    if (!client.ok()) return FailStatus(client.status());
    auto text = (*client)->Stats();
    if (!text.ok()) return FailStatus(text.status());
    std::cout << *text;
    return 0;
  }

  if (cmd == "reload") {
    if (args.size() > 1) return Usage();
    auto client = server::Client::Connect(host, port);
    if (!client.ok()) return FailStatus(client.status());
    Status st = (*client)->Reload(args.empty() ? "" : args[0]);
    if (!st.ok()) return FailStatus(st);
    std::cout << "reloaded\n";
    return 0;
  }

  if (cmd == "shutdown") {
    if (!args.empty()) return Usage();
    auto client = server::Client::Connect(host, port);
    if (!client.ok()) return FailStatus(client.status());
    Status st = (*client)->Shutdown();
    if (!st.ok()) return FailStatus(st);
    std::cout << "server shut down\n";
    return 0;
  }

  return Usage();
}

}  // namespace
}  // namespace rdfsum

int main(int argc, char** argv) { return rdfsum::Run(argc, argv); }
