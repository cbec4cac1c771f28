/**
 * @file
 * The flat dispatch CSV behind `laperm_sim --trace`: one row per TB
 * dispatch, written by obs::TraceCollector from the observer stream.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_collector.hh"
#include "test_util.hh"

using namespace laperm;
using namespace laperm::test;

namespace {

/** Write @p collector's dispatch CSV to @p path and split it back. */
std::vector<std::vector<std::string>>
readDispatchCsv(const obs::TraceCollector &collector,
                const std::string &path, std::string &header)
{
    EXPECT_TRUE(collector.writeDispatchCsv(path));
    std::ifstream in(path);
    std::getline(in, header);
    std::vector<std::vector<std::string>> rows;
    std::string line;
    while (std::getline(in, line)) {
        std::vector<std::string> fields;
        std::stringstream ss(line);
        std::string field;
        while (std::getline(ss, field, ','))
            fields.push_back(field);
        rows.push_back(fields);
    }
    in.close();
    std::remove(path.c_str());
    return rows;
}

} // namespace

TEST(DispatchTrace, RecordsEveryDispatch)
{
    GpuConfig cfg = tinyConfig();
    cfg.dynParModel = DynParModel::DTBL;
    Gpu gpu(cfg);
    obs::TraceCollector collector;
    gpu.observers().attach(&collector);

    auto child = std::make_shared<LambdaProgram>(
        "c", allocateFunctionId(), [](ThreadCtx &c) { c.alu(5); });
    auto parent = std::make_shared<LambdaProgram>(
        "p", allocateFunctionId(), [child](ThreadCtx &c) {
            c.alu(20);
            if (c.threadIndex() == 0)
                c.launch({child, 2, 32});
        });
    gpu.launchHostKernel({parent, 3, 32});
    gpu.runToIdle();

    // Columns: uid,kernel,tbIndex,smx,cycle,priority,dynamic,parent.
    std::string header;
    const auto rows =
        readDispatchCsv(collector, "trace_every_tmp.csv", header);
    ASSERT_EQ(rows.size(), 3u + 6u);
    std::uint32_t dynamic = 0;
    for (const auto &r : rows) {
        ASSERT_EQ(r.size(), 8u);
        EXPECT_LT(std::stoul(r[3]), cfg.numSmx);
        if (r[6] == "1") {
            ++dynamic;
            EXPECT_NE(r[7], "-");
        } else {
            EXPECT_EQ(r[6], "0");
            EXPECT_EQ(r[7], "-");
        }
    }
    EXPECT_EQ(dynamic, 6u);
}

TEST(DispatchTrace, WritesParsableCsv)
{
    GpuConfig cfg = tinyConfig();
    Gpu gpu(cfg);
    obs::TraceCollector collector;
    gpu.observers().attach(&collector);
    auto prog = std::make_shared<LambdaProgram>(
        "k", allocateFunctionId(), [](ThreadCtx &c) { c.alu(2); });
    gpu.launchHostKernel({prog, 4, 32});
    gpu.runToIdle();

    std::string header;
    const auto rows =
        readDispatchCsv(collector, "trace_test_tmp.csv", header);
    EXPECT_EQ(header, "uid,kernel,tbIndex,smx,cycle,priority,dynamic,"
                      "parent");
    EXPECT_EQ(rows.size(), 4u);
}
