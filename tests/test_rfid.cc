/**
 * @file
 * Unit and integration tests for the RFID substrate: protocol,
 * channel, reader, tag front end and the WISP firmware.
 */

#include <gtest/gtest.h>

#include "apps/rfid_firmware.hh"
#include "energy/harvester.hh"
#include "rfid/channel.hh"
#include "rfid/frontend.hh"
#include "rfid/protocol.hh"
#include "rfid/reader.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;
using namespace edb::rfid;

namespace {

TEST(Protocol, MessageNamesMatchPaperFigure12)
{
    EXPECT_STREQ(msgTypeName(MsgType::CmdQuery), "CMD_QUERY");
    EXPECT_STREQ(msgTypeName(MsgType::CmdQueryRep), "CMD_QUERYREP");
    EXPECT_STREQ(msgTypeName(MsgType::RspGeneric), "RSP_GENERIC");
}

TEST(Protocol, FrameWireBytes)
{
    Frame frame;
    frame.payload = {1, 2, 3};
    EXPECT_EQ(frame.wireBytes(), 4u);
}

struct ChannelRig
{
    sim::Simulator sim{61};
    ChannelConfig config;
    std::unique_ptr<RfChannel> channel;

    explicit ChannelRig(double corruption = 0.0)
    {
        config.corruptionProbability = corruption;
        channel = std::make_unique<RfChannel>(sim, "air", config);
    }
};

TEST(Channel, AirTimeByDirection)
{
    ChannelRig rig;
    Frame frame;
    frame.payload.assign(9, 0); // 10 wire bytes
    // Downlink 40 kbps: 80 bits -> 2 ms. Uplink 160 kbps -> 0.5 ms.
    EXPECT_EQ(rig.channel->airTime(Direction::ReaderToTag, frame),
              2 * sim::oneMs);
    EXPECT_EQ(rig.channel->airTime(Direction::TagToReader, frame),
              sim::oneMs / 2);
}

TEST(Channel, TapsSeeEverythingWithTiming)
{
    ChannelRig rig;
    std::vector<std::pair<Direction, sim::Tick>> taps;
    rig.channel->addTap(
        [&taps](Direction dir, const Frame &, sim::Tick when) {
            taps.emplace_back(dir, when);
        });
    Frame frame;
    frame.type = MsgType::CmdQuery;
    frame.payload = {0, 0};
    rig.channel->send(Direction::ReaderToTag, frame, 0);
    rig.sim.runToCompletion();
    ASSERT_EQ(taps.size(), 1u);
    EXPECT_EQ(taps[0].first, Direction::ReaderToTag);
    EXPECT_EQ(taps[0].second,
              rig.channel->airTime(Direction::ReaderToTag, frame));
}

TEST(Channel, CorruptionRateRoughlyHonoured)
{
    ChannelRig rig(0.25);
    Frame frame;
    frame.payload = {1};
    for (int i = 0; i < 2000; ++i)
        rig.channel->send(Direction::TagToReader, frame, 0);
    rig.sim.runToCompletion();
    double rate = double(rig.channel->framesCorrupted()) / 2000.0;
    EXPECT_NEAR(rate, 0.25, 0.04);
}

struct TagRig
{
    sim::Simulator sim{62};
    energy::TheveninHarvester supply{3.0, 50.0};
    RfChannel channel{sim, "air"};
    target::Wisp wisp{sim, "wisp", &supply, &channel};
};

TEST(Frontend, UnpoweredTagMissesFrames)
{
    TagRig rig;
    // Don't start the power system: tag stays at 0 V.
    Frame frame;
    frame.type = MsgType::CmdQuery;
    rig.channel.send(Direction::ReaderToTag, frame, 0);
    rig.sim.runFor(10 * sim::oneMs);
    EXPECT_EQ(rig.wisp.rf()->framesReceived(), 0u);
    EXPECT_EQ(rig.wisp.rf()->framesDroppedUnpowered(), 1u);
}

TEST(Frontend, PoweredTagLatchesFrames)
{
    TagRig rig;
    rig.wisp.start();
    rig.sim.runFor(100 * sim::oneMs); // charge + boot (no program:
                                      // core faults, power stays on)
    Frame frame;
    frame.type = MsgType::CmdQuery;
    frame.payload = {7, 0x20};
    rig.channel.send(Direction::ReaderToTag, frame,
                     rig.sim.now());
    rig.sim.runFor(10 * sim::oneMs);
    EXPECT_EQ(rig.wisp.rf()->framesReceived(), 1u);
    EXPECT_EQ(rig.wisp.rf()->rxPending(), 1u);
}

TEST(Frontend, RxFifoDepthBounded)
{
    TagRig rig;
    rig.wisp.start();
    rig.sim.runFor(100 * sim::oneMs);
    Frame frame;
    frame.type = MsgType::CmdQueryRep;
    for (int i = 0; i < 10; ++i)
        rig.channel.send(Direction::ReaderToTag, frame,
                         rig.sim.now());
    rig.sim.runFor(10 * sim::oneMs);
    EXPECT_EQ(rig.wisp.rf()->rxPending(),
              rfid::RfFrontend::rxFifoDepth);
    EXPECT_GT(rig.wisp.rf()->framesDroppedUnpowered(), 0u);
}

TEST(Reader, InventoryRoundStructure)
{
    sim::Simulator simulator(63);
    RfChannel channel(simulator, "air");
    ReaderConfig config;
    config.slotPeriod = 10 * sim::oneMs;
    config.slotsPerRound = 4;
    RfidReader reader(simulator, "reader", channel, config);
    std::vector<MsgType> sent;
    channel.addTap([&sent](Direction dir, const Frame &frame,
                           sim::Tick) {
        if (dir == Direction::ReaderToTag)
            sent.push_back(frame.type);
    });
    reader.start();
    simulator.runFor(85 * sim::oneMs);
    reader.stop();
    ASSERT_GE(sent.size(), 8u);
    EXPECT_EQ(sent[0], MsgType::CmdQuery);
    EXPECT_EQ(sent[1], MsgType::CmdQueryRep);
    EXPECT_EQ(sent[3], MsgType::CmdQueryRep);
    EXPECT_EQ(sent[4], MsgType::CmdQuery); // new round
    EXPECT_EQ(reader.queriesSent(), sent.size());
}

TEST(Reader, StopHaltsQueries)
{
    sim::Simulator simulator(64);
    RfChannel channel(simulator, "air");
    RfidReader reader(simulator, "reader", channel);
    reader.start();
    simulator.runFor(100 * sim::oneMs);
    auto sent = reader.queriesSent();
    reader.stop();
    simulator.runFor(200 * sim::oneMs);
    EXPECT_EQ(reader.queriesSent(), sent);
}

TEST(RfidFirmware, RepliesToQueriesEndToEnd)
{
    sim::Simulator simulator(65);
    energy::TheveninHarvester supply(3.0, 50.0);
    RfChannel channel(simulator, "air");
    ReaderConfig reader_config;
    reader_config.slotPeriod = 20 * sim::oneMs;
    RfidReader reader(simulator, "reader", channel, reader_config);
    target::Wisp wisp(simulator, "wisp", &supply, &channel);
    wisp.flash(apps::buildRfidFirmware());
    reader.start();
    wisp.start();
    simulator.runFor(2 * sim::oneSec);

    EXPECT_GT(reader.queriesSent(), 50u);
    EXPECT_GT(reader.repliesReceived(), 40u);
    // On continuous power every uncorrupted query gets an answer.
    EXPECT_GE(reader.responseRate(), 0.9);
    std::uint32_t decoded =
        wisp.mcu().debugRead32(apps::rfid_layout::decodedAddr);
    std::uint32_t replied =
        wisp.mcu().debugRead32(apps::rfid_layout::repliedAddr);
    EXPECT_EQ(decoded, replied);
}

TEST(RfidFirmware, ReplyCarriesEpc)
{
    sim::Simulator simulator(66);
    energy::TheveninHarvester supply(3.0, 50.0);
    RfChannel channel(simulator, "air");
    ChannelConfig quiet;
    quiet.corruptionProbability = 0.0;
    RfChannel clean_channel(simulator, "air2", quiet);
    target::Wisp wisp(simulator, "wisp", &supply, &clean_channel);
    wisp.flash(apps::buildRfidFirmware());
    std::vector<std::uint8_t> epc;
    clean_channel.addTap([&epc](Direction dir, const Frame &frame,
                                sim::Tick) {
        if (dir == Direction::TagToReader &&
            frame.type == MsgType::RspGeneric) {
            epc = frame.payload;
        }
    });
    wisp.start();
    simulator.runFor(200 * sim::oneMs);
    Frame query;
    query.type = MsgType::CmdQuery;
    query.payload = {0, 0x20};
    clean_channel.send(Direction::ReaderToTag, query,
                       simulator.now());
    simulator.runFor(50 * sim::oneMs);
    ASSERT_EQ(epc.size(), apps::wispEpc.size());
    EXPECT_TRUE(std::equal(epc.begin(), epc.end(),
                           apps::wispEpc.begin()));
    (void)channel;
}

} // namespace
