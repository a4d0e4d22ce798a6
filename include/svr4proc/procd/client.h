// The procd client: a ProcIo transport that ships every operation to a
// ProcdServer as a wire frame. ProcHandle, truss, ps and kstat_tool run
// unmodified over this — the paper's "ordinary descriptors" claim,
// stretched over a wire. The debugger does not yet: Debugger, DbxShell and
// PtraceLib take a Kernel&.
#ifndef SVR4PROC_PROCD_CLIENT_H_
#define SVR4PROC_PROCD_CLIENT_H_

#include <deque>
#include <memory>

#include "svr4proc/procd/procd.h"
#include "svr4proc/tools/procio.h"

namespace svr4 {

class RemoteProcIo : public ProcIo {
 public:
  explicit RemoteProcIo(std::shared_ptr<ProcdConn> conn) : conn_(std::move(conn)) {}
  ~RemoteProcIo() override;

  RemoteProcIo(const RemoteProcIo&) = delete;
  RemoteProcIo& operator=(const RemoteProcIo&) = delete;

  // Orderly hangup: the server detaches the peer on its next Pump, closing
  // every descriptor the peer held.
  void Hangup();
  bool connected() const { return conn_ != nullptr && !conn_->server_closed; }

  // The pid of this peer's controller process inside the served kernel.
  Result<Pid> PeerPid();

  // The server's span/stats registry as metrics text (the same text
  // /proc2/kernel/procd serves locally). One kStats frame.
  Result<std::string> ProcdStats();

  Result<int> Open(const std::string& path, int oflags) override;
  Result<void> Close(int fd) override;
  Result<int64_t> Read(int fd, void* buf, uint64_t n) override;
  Result<int64_t> Write(int fd, const void* buf, uint64_t n) override;
  Result<int64_t> Lseek(int fd, int64_t off, int whence) override;
  Result<int32_t> Ioctl(int fd, uint32_t op, void* arg) override;
  Result<std::vector<DirEnt>> ReadDir(const std::string& path) override;
  Result<size_t> ReadDirChunk(const std::string& path, uint64_t* cookie, size_t max,
                              std::vector<DirEnt>* out) override;
  Result<VAttr> Stat(const std::string& path) override;
  Result<int> PollFds(std::span<PollFd> fds, int64_t timeout_ticks) override;
  Result<Pid> Spawn(const std::string& path, const std::vector<std::string>& argv,
                    const Creds& creds) override;

  // Event push: subscribes a descriptor's poll state; the server pushes a
  // kEvent frame whenever the level changes. Events queue locally until
  // drained with NextEvent.
  struct Event {
    int32_t fd = 0;
    int32_t revents = 0;
  };
  Result<void> Subscribe(int fd, int events);
  Result<void> Unsubscribe(int fd);
  bool NextEvent(Event* out);
  // Lets queued pushes arrive without issuing a request: pumps the server
  // once and drains any frames.
  void Poke();

 private:
  // Sends one request, its fields encoded through PdMsg<Op>, and pumps the
  // server until the tagged reply arrives; decodes the reply through
  // PdMsg<Op> (one that does not decode is EIO). Pushed kEvent frames met
  // on the way are queued. Strings, byte runs and sequences in the result
  // view the connection's server -> client buffer, uncopied: use them before
  // the next Call, Poke or NextEvent, any of which may overwrite it.
  template <PdOp Op, typename... A>
  Result<PdRep<Op>> Call(const A&... fields);
  // Sends the body in request_ and returns the reply frame, or the errno an
  // error reply carries.
  Result<PdFrame> Exchange(PdOp op);
  // Queues `f` if it is a pushed event; returns whether it was one.
  bool TakeEvent(const PdFrame& f);
  void DrainPushed();

  std::shared_ptr<ProcdConn> conn_;
  std::deque<Event> events_;
  uint32_t next_tag_ = 1;
  PdWriter request_;  // the request body being encoded, reused across calls
};

}  // namespace svr4

#endif  // SVR4PROC_PROCD_CLIENT_H_
