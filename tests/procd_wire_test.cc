// procd's wire format, pinned byte for byte. A script drives each of the
// 15 request ops, plus one error reply and one kEvent push: the kIoctl is a
// PIOCSTOP that parks on its stop-wait, the second kPoll parks until it
// times out, and the last kOpen fails. Each request body is the one
// RemoteProcIo sent for that call when the hex below was captured; sent raw
// over a ProcdConn, it must draw the captured reply frame (PdFrameHdr, then
// the body) from the server. Queued for a RemoteProcIo on a connection with
// no server, each captured reply must decode to the values the call
// returned then. Both ends read one declaration of the format (PdMsg in
// procd.h), so a change to it shows here: the server's reply bytes differ,
// or the client no longer decodes the captured replies.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "svr4proc/procd/client.h"
#include "svr4proc/procd/procd.h"
#include "svr4proc/procfs/ctl.h"
#include "svr4proc/tools/sim.h"

namespace svr4 {
namespace {

constexpr char kCounter[] = R"(
loop: ldi r4, var
      ldw r5, [r4]
      addi r5, 1
      stw r5, [r4]
      jmp loop
      .data
var:  .word 0
)";

// The text and data addresses the captured lseeks name.
constexpr uint32_t kLoop = 0x80000000;
constexpr uint32_t kVar = 0x80008000;

constexpr char kStatsText[] =
    "procd peers=1 pump_rounds=21 peer_scans=23 parked_now=0 spans=off\n"
    "counter procd_frames_in 17\n"
    "counter procd_ctl_ops 2\n"
    "counter procd_events_pushed 1\n"
    "counter procd_disconnects 0\n"
    "counter procd_chaos_disconnects 0\n"
    "counter procd_op[hello] count=1 parks=0\n"
    "counter procd_op[open] count=2 parks=0\n"
    "counter procd_op[read] count=1 parks=0\n"
    "counter procd_op[write] count=1 parks=0\n"
    "counter procd_op[lseek] count=2 parks=0\n"
    "counter procd_op[ioctl] count=1 parks=1\n"
    "counter procd_op[psall] count=1 parks=0\n"
    "counter procd_op[readdir] count=1 parks=0\n"
    "counter procd_op[stat] count=1 parks=0\n"
    "counter procd_op[poll] count=2 parks=1\n"
    "counter procd_op[subscribe] count=1 parks=0\n"
    "counter procd_op[unsubscribe] count=1 parks=0\n"
    "counter procd_op[spawn] count=1 parks=0\n"
    "counter procd_op[stats] count=1 parks=0\n"
    "counter procd_peer[5] frames=17 ctl_ops=2 parks=2\n";

std::string Hex(const void* p, size_t n) {
  std::string s;
  char byte[3];
  for (size_t i = 0; i < n; ++i) {
    std::snprintf(byte, sizeof(byte), "%02x", static_cast<const uint8_t*>(p)[i]);
    s += byte;
  }
  return s;
}
std::string Hex(const std::string& text) { return Hex(text.data(), text.size()); }

std::vector<uint8_t> Unhex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::string FrameHex(const PdFrame& f) {
  return Hex(&f.hdr, sizeof(f.hdr)) + Hex(f.body.data(), f.body.size());
}

struct WireRow {
  PdOp op;
  std::string request;  // the body RemoteProcIo sent
  std::string reply;    // the reply frame: PdFrameHdr, then the body
};

// In script order; the server's reply tags count from 1.
std::vector<WireRow> Script() {
  return {
      {PdOp::kHello, "",
       "04000000010000000100000005000000"},
      {PdOp::kOpen, "020000000b0000002f70726f632f3030303034",
       "04000000020000000200000000000000"},
      {PdOp::kIoctl, "000000000271000000000000f0000000",
       "f4000000080000000300000000000000030000000100000000000000000000000000000000000000000000"
       "00000000000000010000000000000000000000000000000000000000000000000000000000000000000400"
       "00000100000000000000000000000000000000000000000000000000000000000000000000000000000000"
       "00000000000000545300000000000000000000000000000000000000000000000000000000000000000000"
       "110400800000000001000000ecdfffbf000000000000000000000000000000000000000000000000000000"
       "000000000000000000000000000000000000000000dcdfffbf00000080000000000100000000000000"},
      {PdOp::kLseek, "00000000008000800000000000000000",
       "0800000007000000040000000080008000000000"},
      {PdOp::kWrite, "0000000044332211",
       "0800000006000000050000000400000000000000"},
      {PdOp::kLseek, "00000000000000800000000000000000",
       "0800000007000000060000000000008000000000"},
      {PdOp::kRead, "0000000008000000",
       "0800000004000000070000001104008000802054"},
      {PdOp::kPsall, "000000000000000002000000",
       "58010000090000000800000002000000020000005300140000000000000000000000000000000000000000"
       "00000000000000000000000000000000000000000000000000000000000000000054530000000000007363"
       "68656400000000000000000000007363686564000000000000000000000000000000000000000000000000"
       "00000000000000000000000000000000000000000000000000000000000000000000000000000000000000"
       "00000000000000000000000000000000530014000000000000000000000000000100000000000000000000"
       "00000000000000000000000000000000000000000000000000000000005453000000000000696e69740000"
       "00000000000000000000696e69740000000000000000000000000000000000000000000000000000000000"
       "00000000000000000000000000000000000000000000000000000000000000000000000000000000000000"
       "000000000000000000000000"},
      {PdOp::kReadDirChunk, "000000000000000003000000060000002f70726f6332",
       "2b0000000a0000000900000003000000000000000300000001060000006b65726e656c0105000000303030"
       "303001050000003030303031"},
      {PdOp::kStat, "0f0000002f70726f63322f342f737461747573",
       "210000000b0000000a00000004000100000000000000000000000000000000000000000000000000000100"
       "0000"},
      {PdOp::kPoll, "0000000000000000010000000000000002000000",
       "0c0000000c0000000b000000010000000100000002000000"},
      {PdOp::kSubscribe, "0000000002000000",
       "000000000d0000000c000000"},
      {PdOp::kUnsubscribe, "00000000",
       "000000000e0000000d000000"},
      {PdOp::kSpawn, "0000000000000000090000002f62696e2f70726f67020000000400000070726f670100000078",
       "040000000f0000000e00000006000000"},
      {PdOp::kOpen, "000000000b0000002f70726f632f3030303036",
       "04000000020000000f00000001000000"},
      {PdOp::kPoll, "0300000000000000010000000100000002000000",
       "0c0000000c00000010000000000000000100000000000000"},
      {PdOp::kStats, "", std::string("3b0300001000000011000000") + Hex(kStatsText)},
      {PdOp::kClose, "00000000",
       "000000000300000012000000"},
      {PdOp::kOpen, "00000000080000002f6e6f2f73756368",
       "04000000020001001300000002000000"},
  };
}

// Pushed between the kSubscribe reply and the kUnsubscribe request: fd 0
// reads POLLPRI (the target is stopped).
constexpr char kEventFrame[] = "0800000064000000000000000000000002000000";

TEST(ProcdWire, EveryOpDrawsTheCapturedReplyBytes) {
  Sim sim;
  ASSERT_TRUE(sim.InstallProgram("/bin/prog", kCounter).ok());
  ASSERT_EQ(sim.Start("/bin/prog").value_or(-1), 4);
  ProcdServer srv(sim.kernel());
  auto conn = srv.Connect(Creds::Root());
  std::vector<std::string> events;
  uint32_t tag = 0;
  for (const WireRow& row : Script()) {
    conn->Send(row.op, ++tag, Unhex(row.request));
    std::string reply;
    PdFrame f;
    for (int i = 0; i < 100'000 && reply.empty(); ++i) {
      while (reply.empty() && conn->s2c.NextFrame(&f)) {
        (f.hdr.tag == 0 ? events.emplace_back() : reply) = FrameHex(f);
      }
      if (reply.empty()) {
        srv.Pump();
      }
    }
    EXPECT_EQ(reply, row.reply) << "reply to request " << tag << " (op "
                                << static_cast<int>(row.op) << ")";
  }
  EXPECT_EQ(events, std::vector<std::string>{kEventFrame});
}

TEST(ProcdWire, ClientDecodesTheCapturedReplies) {
  auto conn = std::make_shared<ProcdConn>();  // no server: the script answers
  RemoteProcIo rio(conn);
  const std::vector<WireRow> script = Script();
  size_t next = 0;
  uint32_t tag = 0;
  std::vector<uint8_t> body;  // the body of the reply just queued
  // Queues the next captured reply for the client's next request.
  auto answer = [&] {
    std::vector<uint8_t> frame = Unhex(script[next++].reply);
    PdFrameHdr h;
    std::memcpy(&h, frame.data(), sizeof(h));
    body.assign(frame.begin() + sizeof(h), frame.end());
    PdWriteFrame(conn->s2c, static_cast<PdOp>(h.op), h.flags, ++tag, body);
  };

  answer();
  EXPECT_EQ(rio.PeerPid().value_or(-1), 5);
  answer();
  EXPECT_EQ(rio.Open("/proc/00004", O_RDWR).value_or(-1), 0);
  answer();
  PrStatus st;
  EXPECT_EQ(rio.Ioctl(0, PIOCSTOP, &st).value_or(-1), 0);
  EXPECT_EQ(Hex(&st, sizeof(st)), Hex(body.data() + 4, body.size() - 4));
  EXPECT_NE(st.pr_flags & PR_STOPPED, 0u);
  answer();
  EXPECT_EQ(rio.Lseek(0, kVar, SEEK_SET_).value_or(-1), int64_t{kVar});
  answer();
  uint32_t word = 0x11223344;
  EXPECT_EQ(rio.Write(0, &word, 4).value_or(-1), 4);
  answer();
  EXPECT_EQ(rio.Lseek(0, kLoop, SEEK_SET_).value_or(-1), int64_t{kLoop});
  answer();
  uint8_t code[8] = {};
  ASSERT_EQ(rio.Read(0, code, sizeof(code)).value_or(-1), 8);
  EXPECT_EQ(Hex(code, sizeof(code)), "1104008000802054");
  answer();
  PrPsAll all;
  all.pr_start_pid = 0;
  all.pr_limit = 2;
  ASSERT_EQ(rio.Ioctl(0, PIOCPSALL, &all).value_or(-1), 0);
  EXPECT_EQ(all.pr_next_pid, 2);
  ASSERT_EQ(all.pr_procs.size(), 2u);
  EXPECT_EQ(Hex(all.pr_procs.data(), 2 * sizeof(PrPsinfo)), Hex(body.data() + 8, body.size() - 8));
  answer();
  uint64_t cookie = 0;
  std::vector<DirEnt> ents;
  EXPECT_EQ(rio.ReadDirChunk("/proc2", &cookie, 3, &ents).value_or(0), 3u);
  EXPECT_EQ(cookie, 3u);
  ASSERT_EQ(ents.size(), 3u);
  EXPECT_EQ(ents[0].name, "kernel");
  EXPECT_EQ(ents[2].name, "00001");
  EXPECT_EQ(ents[2].type, VType::kDir);
  answer();
  auto attr = rio.Stat("/proc2/4/status");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->type, VType::kProc);
  EXPECT_EQ(attr->mode, 0400u);
  EXPECT_EQ(attr->nlink, 1u);
  answer();
  PollFd pf{0, POLLPRI, 0};
  EXPECT_EQ(rio.PollFds(std::span<PollFd>(&pf, 1), 0).value_or(-1), 1);
  EXPECT_EQ(pf.revents, POLLPRI);
  answer();
  EXPECT_TRUE(rio.Subscribe(0, POLLPRI).ok());
  std::vector<uint8_t> event = Unhex(kEventFrame);
  conn->s2c.Append(event.data(), event.size());
  answer();
  EXPECT_TRUE(rio.Unsubscribe(0).ok());
  RemoteProcIo::Event ev;
  ASSERT_TRUE(rio.NextEvent(&ev)) << "the pushed event was dropped";
  EXPECT_EQ(ev.fd, 0);
  EXPECT_EQ(ev.revents, POLLPRI);
  answer();
  EXPECT_EQ(rio.Spawn("/bin/prog", {"prog", "x"}, Creds::Root()).value_or(-1), 6);
  answer();
  EXPECT_EQ(rio.Open("/proc/00006", O_RDONLY).value_or(-1), 1);
  answer();
  pf = PollFd{1, POLLPRI, 0};
  EXPECT_EQ(rio.PollFds(std::span<PollFd>(&pf, 1), 3).value_or(-1), 0);
  EXPECT_EQ(pf.revents, 0);
  answer();
  EXPECT_EQ(rio.ProcdStats().value_or(""), kStatsText);
  answer();
  EXPECT_TRUE(rio.Close(0).ok());
  answer();
  auto missing = rio.Open("/no/such", O_RDONLY);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error(), Errno::kENOENT);
  EXPECT_EQ(next, script.size());
}

// An error reply's body is the errno; one that carries errno 0 names no
// error, so the call fails with EIO instead of returning a value the reply
// never carried.
TEST(ProcdReplyTrust, ErrorReplyWithoutAnErrnoIsEio) {
  auto conn = std::make_shared<ProcdConn>();
  RemoteProcIo rio(conn);
  int32_t no_errno = 0;
  PdWriteFrame(conn->s2c, PdOp::kHello, kPdErrFlag, /*tag=*/1,
               std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&no_errno), 4));
  auto pid = rio.PeerPid();
  ASSERT_FALSE(pid.ok());
  EXPECT_EQ(pid.error(), Errno::kEIO);
}

}  // namespace
}  // namespace svr4
