// Doc-drift guard: docs/spec_reference.md must cover everything
// `dynagg_run --list` enumerates — the protocol/environment/driver
// registries and the workload/record-type/network-model/async-key
// catalogs. The test reads the manual straight from the source tree
// (DYNAGG_SOURCE_DIR) and requires each name to appear backticked, so
// registering a new protocol or spec key without documenting it fails CI
// with the missing name in the message. The protocol catalog must also
// list each protocol's derived capabilities exactly.

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "net/network_model.h"
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

// The cross-linked companion documents the reference manual points at
// must exist — a broken link is drift too.
TEST_F(DocDriftTest, CompanionDocsExist) {
  EXPECT_FALSE(ReadDoc("docs/architecture.md").empty());
  EXPECT_FALSE(ReadDoc("docs/determinism.md").empty());
  EXPECT_FALSE(ReadDoc("README.md").empty());
}

}  // namespace
}  // namespace dynagg
