// Doc-drift guard: docs/spec_reference.md must cover everything
// `dynagg_run --list` enumerates — the protocol/environment/driver
// registries and the workload/record-type/network-model/async-key
// catalogs. The test reads the manual straight from the source tree
// (DYNAGG_SOURCE_DIR) and requires each name to appear backticked, so
// registering a new protocol or spec key without documenting it fails CI
// with the missing name in the message. The protocol catalog must also
// list each protocol's derived capabilities exactly, and each protocol's
// and environment's row every key its parse reads.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "net/network_model.h"
#include "scenario/spec.h"
#include "scenario/trial.h"
#include "sim/workload.h"

namespace dynagg {
namespace {

std::string ReadDoc(const std::string& relative) {
  const std::string path = std::string(DYNAGG_SOURCE_DIR) + "/" + relative;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

class DocDriftTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    doc_ = new std::string(ReadDoc("docs/spec_reference.md"));
  }
  static void TearDownTestSuite() {
    delete doc_;
    doc_ = nullptr;
  }

  /// The manual must mention the name in code style (`name`), the way
  /// every catalog table renders keys — a prose coincidence ("uniform
  /// distribution") never satisfies the guard.
  static void ExpectDocumented(const std::string& name,
                               const char* catalog) {
    EXPECT_NE(doc_->find("`" + name + "`"), std::string::npos)
        << catalog << " entry '" << name
        << "' is missing from docs/spec_reference.md — document it (type, "
           "default, valid range, driver compatibility)";
  }

  static std::string* doc_;
};

std::string* DocDriftTest::doc_ = nullptr;

TEST_F(DocDriftTest, EveryProtocolIsDocumented) {
  for (const std::string& name : scenario::ProtocolRegistry().Names()) {
    ExpectDocumented(name, "protocol");
  }
}

// The protocol catalog's capabilities column must list exactly what the
// registry derives from each swarm type ("—" for none), in canonical
// order — the same string `dynagg_run --list` prints.
TEST_F(DocDriftTest, ProtocolCapabilitiesMatchTheRegistry) {
  const size_t catalog = doc_->find("## Protocol catalog");
  ASSERT_NE(catalog, std::string::npos);
  for (const std::string& name : scenario::ProtocolRegistry().Names()) {
    const std::string row_start = "\n| `" + name + "` | ";
    const size_t row = doc_->find(row_start, catalog);
    ASSERT_NE(row, std::string::npos)
        << "protocol '" << name << "' has no catalog row";
    const size_t begin = row + row_start.size();
    const std::string documented =
        doc_->substr(begin, doc_->find(" |", begin) - begin);
    const scenario::ProtocolDef def =
        scenario::ProtocolRegistry().Find(name).value();
    EXPECT_EQ(documented, scenario::DescribeCapabilities(def.capabilities))
        << "docs/spec_reference.md lists the wrong capabilities for '"
        << name << "'";
  }
}

TEST_F(DocDriftTest, EveryEnvironmentIsDocumented) {
  for (const std::string& name : scenario::EnvironmentRegistry().Names()) {
    ExpectDocumented(name, "environment");
  }
}

TEST_F(DocDriftTest, EveryDriverIsDocumented) {
  for (const std::string& name : scenario::DriverRegistry().Names()) {
    ExpectDocumented(name, "driver");
  }
}

TEST_F(DocDriftTest, EveryWorkloadKindIsDocumented) {
  for (const WorkloadKindInfo& kind : KeyedWorkloadKinds()) {
    ExpectDocumented(kind.name, "workload kind");
  }
}

TEST_F(DocDriftTest, EveryRecordTypeIsDocumented) {
  for (const scenario::RecordTypeInfo& type : scenario::RecordTypeCatalog()) {
    ExpectDocumented(type.name, "record type");
  }
}

TEST_F(DocDriftTest, EveryNetworkModelIsDocumented) {
  for (const net::NetCatalogInfo& model : net::NetworkModelCatalog()) {
    ExpectDocumented(model.name, "network model");
  }
}

TEST_F(DocDriftTest, EveryAsyncSpecKeyIsDocumented) {
  for (const net::NetCatalogInfo& key : net::AsyncSpecKeyCatalog()) {
    ExpectDocumented(key.name, "async driver spec key");
  }
}

/// The keys a parse read, from the "(allowed: a, b)" list of the error it
/// gives for an unknown key, without their prefix.
std::vector<std::string> AllowedKeys(const Status& st,
                                     const std::string& prefix) {
  std::vector<std::string> keys;
  const std::string marker = "(allowed: ";
  const size_t open = st.message().find(marker);
  EXPECT_NE(open, std::string::npos) << st.ToString();
  if (open == std::string::npos) return keys;
  std::string list = st.message().substr(open + marker.size());
  list = list.substr(0, list.rfind(')'));
  std::istringstream items(list);
  std::string key;
  while (std::getline(items, key, ',')) {
    key.erase(0, key.find_first_not_of(' '));
    if (key.empty()) continue;
    EXPECT_EQ(key.rfind(prefix, 0), 0u) << key;
    keys.push_back(key.substr(prefix.size()));
  }
  return keys;
}

/// The catalog row of `name` in the table after `section`: the line that
/// starts with "| `name` |".
std::string CatalogRow(const std::string& doc, const std::string& section,
                       const std::string& name) {
  const size_t table = doc.find(section);
  EXPECT_NE(table, std::string::npos) << section;
  const size_t row = doc.find("\n| `" + name + "` |", table);
  EXPECT_NE(row, std::string::npos) << "no catalog row for '" << name << "'";
  if (table == std::string::npos || row == std::string::npos) return "";
  return doc.substr(row + 1, doc.find('\n', row + 1) - row - 1);
}

// Every key a protocol's parse reads is documented in its catalog row: a
// spec with one bogus protocol.* key makes the parse list the keys it
// read, and each must appear backticked in the row.
TEST_F(DocDriftTest, EveryProtocolKeyIsInItsCatalogRow) {
  for (const std::string& name : scenario::ProtocolRegistry().Names()) {
    SCOPED_TRACE(name);
    const scenario::ProtocolDef def =
        scenario::ProtocolRegistry().Find(name).value();
    scenario::ScenarioSpec spec;
    spec.protocol = name;
    spec.hosts = 16;
    spec.params["protocol.zz_bogus"] = "1";
    const Status st = def.validate(spec);
    ASSERT_FALSE(st.ok());
    const std::string row = CatalogRow(*doc_, "## Protocol catalog", name);
    for (const std::string& key : AllowedKeys(st, "protocol.")) {
      EXPECT_NE(row.find("`" + key + "`"), std::string::npos)
          << "protocol." << key << " is missing from the '" << name
          << "' row of docs/spec_reference.md";
    }
  }
}

TEST_F(DocDriftTest, EveryEnvironmentKeyIsInItsCatalogRow) {
  for (const std::string& name : scenario::EnvironmentRegistry().Names()) {
    SCOPED_TRACE(name);
    const scenario::EnvironmentDef def =
        scenario::EnvironmentRegistry().Find(name).value();
    scenario::ScenarioSpec spec;
    spec.environment = name;
    spec.hosts = 16;
    spec.params["env.zz_bogus"] = "1";
    const Result<int> hosts = def.validate(spec);
    ASSERT_FALSE(hosts.ok());
    const std::string row = CatalogRow(*doc_, "## Environments", name);
    for (const std::string& key : AllowedKeys(hosts.status(), "env.")) {
      EXPECT_NE(row.find("`" + key + "`"), std::string::npos)
          << "env." << key << " is missing from the '" << name
          << "' row of docs/spec_reference.md";
    }
  }
}

// The cross-linked companion documents the reference manual points at
// must exist — a broken link is drift too.
TEST_F(DocDriftTest, CompanionDocsExist) {
  EXPECT_FALSE(ReadDoc("docs/architecture.md").empty());
  EXPECT_FALSE(ReadDoc("docs/determinism.md").empty());
  EXPECT_FALSE(ReadDoc("README.md").empty());
}

}  // namespace
}  // namespace dynagg
