#ifndef XMODEL_OT_FIXTURE_H_
#define XMODEL_OT_FIXTURE_H_

#include <string>
#include <vector>

#include "common/strings.h"
#include "ot/operation.h"
#include "ot/sync.h"

namespace xmodel::ot {

/// The generated tests' harness, mirroring the paper's
/// TransformArrayFixture (Figure 9): clients perform transactions offline,
/// sync_all_clients() merges everyone (in the same ascending order as the
/// specification), and check_array / check_ops assert the outcome.
///
/// Errors are accumulated rather than thrown, so the fixture works both
/// under gtest (EXPECT on errors()) and in the in-process MBTCG runner.
class TransformArrayFixture {
 public:
  TransformArrayFixture(int num_clients, Array initial,
                        const ListTransformer* transformer = nullptr,
                        MergeConfig merge_config = {})
      : sync_(std::move(initial), num_clients, merge_config, transformer) {}

  /// Client (0-based, as in Figure 9) performs one local operation.
  void transaction(int client, const Operation& op) {
    // The spec does not model time; the 1-based client id breaks ties.
    Operation stamped = op.At(/*ts=*/0, client + 1);
    const common::Status status = sync_.ClientApply(client, stamped);
    if (!status.ok()) {
      Fail(common::StrCat("transaction(", client, ", ", op.ToString(),
                          "): ", status.ToString()));
    }
  }

  /// Merges every client with the server, ascending ids (or descending,
  /// matching a merge_descending specification), until quiescent.
  void sync_all_clients(bool descending = false) {
    const common::Status status = sync_.SyncAll(/*max_rounds=*/16, descending);
    if (!status.ok()) Fail("sync_all_clients: " + status.ToString());
  }

  /// Asserts the final converged array on the server and every client.
  void check_array(const Array& expected) {
    if (sync_.server_state() != expected) {
      Fail(common::StrCat("server array ", ToString(sync_.server_state()),
                          " != expected ", ToString(expected)));
    }
    for (int c = 0; c < sync_.num_clients(); ++c) {
      if (sync_.client_state(c) != expected) {
        Fail(common::StrCat("client ", c, " array ",
                            ToString(sync_.client_state(c)),
                            " != expected ", ToString(expected)));
      }
    }
  }

  /// Asserts the transformed operations client (0-based) applied during
  /// its merges. Only the operations' effects are compared (type and
  /// indices), not their metadata.
  void check_ops(int client, const OpList& expected) {
    const OpList& actual = sync_.applied_ops(client);
    bool equal = actual.size() == expected.size();
    for (size_t i = 0; equal && i < actual.size(); ++i) {
      equal = actual[i].SameEffect(expected[i]);
    }
    if (!equal) {
      Fail(common::StrCat("client ", client, " applied ", ToString(actual),
                          " != expected ", ToString(expected)));
    }
  }

  bool ok() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }
  SyncSystem& sync() { return sync_; }

 private:
  void Fail(std::string message) { errors_.push_back(std::move(message)); }

  SyncSystem sync_;
  std::vector<std::string> errors_;
};

}  // namespace xmodel::ot

#endif  // XMODEL_OT_FIXTURE_H_
