//===- serve/Sandbox.cpp --------------------------------------*- C++ -*-===//

#include "serve/Sandbox.h"

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "api/Diagnostics.h"
#include "cgen/Native.h"
#include "parallel/ThreadPool.h"
#include "robust/FaultInject.h"
#include "support/Format.h"
#include "support/PhiloxRNG.h"
#include "telemetry/Telemetry.h"

using namespace augur;
using namespace augur::serve;

//===----------------------------------------------------------------------===//
// Shared chain loop
//===----------------------------------------------------------------------===//

Status augur::serve::runRequestChains(MCMCProgram &Prog,
                                      const SampleRequest &SR,
                                      const std::string &Source,
                                      const ChainDrawSink &OnDraw,
                                      const ChainDoneFn &OnChainDone) {
  int Chains = SR.Chains < 1 ? 1 : SR.Chains;
  for (int C = 0; C < Chains; ++C) {
    // Bit-identity contract: chain c is reset to seed philoxMix(Seed, c)
    // with chain index c — the exact options Infer::sampleChains
    // compiles chain c with — so any attempt (in-process, sandboxed,
    // retried, hedged) replays the same stream.
    AUGUR_RETURN_IF_ERROR(
        Prog.resetForReuse(philoxMix(SR.Seed, uint64_t(C)), C));
    try {
      AUGUR_RETURN_IF_ERROR(Prog.init());
    } catch (...) {
      return execFaultStatus("init");
    }
    SampleOptions SO;
    SO.NumSamples = SR.NumSamples;
    SO.BurnIn = SR.BurnIn;
    SO.Thin = SR.Thin;
    SO.Record = SR.Record;
    SO.TrackLogJoint = SR.TrackLogJoint;
    SO.KeepDraws = false; // draws stream out; the server holds O(1)
    SO.OnDraw = [&](uint64_t Index, const std::vector<std::string> &Names,
                    const std::vector<const Value *> &Row,
                    double LogJoint) -> Status {
      return OnDraw(C, Index, Names, Row, LogJoint);
    };
    AUGUR_ASSIGN_OR_RETURN(SampleSet Set, sampleProgram(Prog, SO, Source));
    if (OnChainDone)
      OnChainDone(C, Set);
  }
  return Status::success();
}

//===----------------------------------------------------------------------===//
// DrawChannel: worker -> parent byte stream
//===----------------------------------------------------------------------===//

namespace {

/// Header of the shared-memory SPSC ring. Head/Tail are monotonic byte
/// positions (the ring holds Tail - Head unread bytes, indexed mod
/// Cap); lock-free uint64 atomics are address-free on every platform we
/// build for, so they work across the fork boundary.
struct RingHdr {
  std::atomic<uint64_t> Head; ///< parent: bytes consumed
  std::atomic<uint64_t> Tail; ///< child: bytes produced
  /// 1 while the parent is (about to be) blocked in poll(). The child
  /// rings the doorbell only then: while the parent is busy draining
  /// and forwarding, records accumulate in the ring without a
  /// syscall-and-wakeup per draw (which otherwise costs a context
  /// switch per record — the dominant per-draw relay cost).
  std::atomic<uint32_t> ParentAsleep;
  uint64_t Cap;
};

/// The worker->parent draw stream. Two transports behind one API:
///
///  - ring: a MAP_SHARED|MAP_ANONYMOUS SPSC byte ring the child writes
///    draw records into without a syscall per draw, plus a "doorbell"
///    pipe — the child writes one non-blocking byte per record, but
///    only while the parent is asleep in poll() (see
///    RingHdr::ParentAsleep), and the child's exit (of any kind,
///    including SIGKILL) closes its end, waking the parent with
///    POLLHUP immediately,
///  - pipe: plain blocking pipe carrying the record bytes themselves
///    (fallback when mmap fails, and selectable for testing).
///
/// Record framing (both transports): [u32 len][u8 tag][payload], len
/// covering tag + payload. Tag 'D' payload: [u32 chain][u64 index]
/// followed by the draw frame's JSON text, forwarded to the client
/// verbatim. Tag 'S': the worker's terminal status JSON.
class DrawChannel {
public:
  static Result<DrawChannel> create(size_t RingBytes, bool ForcePipe) {
    DrawChannel Ch;
    if (!ForcePipe) {
      size_t Cap = RingBytes < 4096 ? 4096 : RingBytes;
      size_t Bytes = sizeof(RingHdr) + Cap;
      void *P = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
      if (P != MAP_FAILED) {
        Ch.Hdr = static_cast<RingHdr *>(P);
        new (&Ch.Hdr->Head) std::atomic<uint64_t>(0);
        new (&Ch.Hdr->Tail) std::atomic<uint64_t>(0);
        // Asleep until the relay loop's first armPoll(): records sent
        // before then ring the bell, which is harmless.
        new (&Ch.Hdr->ParentAsleep) std::atomic<uint32_t>(1);
        Ch.Hdr->Cap = Cap;
        Ch.Data = reinterpret_cast<uint8_t *>(Ch.Hdr + 1);
        Ch.MapBytes = Bytes;
      }
    }
    int P[2];
    if (::pipe(P) != 0)
      return Status::error(
          strFormat("sandbox: cannot create pipe: %s", std::strerror(errno)));
    Ch.RdFd = P[0];
    Ch.WrFd = P[1];
    // Parent read end never blocks; with the ring transport the child's
    // doorbell write must not block either (a full doorbell is fine —
    // the parent drains the ring on its poll timeout anyway).
    ::fcntl(Ch.RdFd, F_SETFL, O_NONBLOCK);
    if (Ch.Hdr)
      ::fcntl(Ch.WrFd, F_SETFL, O_NONBLOCK);
    return Ch;
  }

  DrawChannel(DrawChannel &&O) noexcept { moveFrom(O); }
  DrawChannel &operator=(DrawChannel &&O) noexcept {
    destroy();
    moveFrom(O);
    return *this;
  }
  DrawChannel(const DrawChannel &) = delete;
  DrawChannel &operator=(const DrawChannel &) = delete;
  ~DrawChannel() { destroy(); }

  /// Post-fork split: each side closes the end it must not hold. The
  /// parent dropping the write end is what turns child death into
  /// POLLHUP on the read end.
  void parentAfterFork() {
    if (WrFd >= 0) {
      ::close(WrFd);
      WrFd = -1;
    }
  }
  void childAfterFork() {
    if (RdFd >= 0) {
      ::close(RdFd);
      RdFd = -1;
    }
  }

  int pollFd() const { return RdFd; }
  int childFd() const { return WrFd; }

  /// Child: appends one framed record to the stream (blocking until the
  /// parent makes room).
  void sendRecord(char Tag, const char *ExtraHdr, size_t ExtraLen,
                  const std::string &Body) {
    uint32_t Len = uint32_t(1 + ExtraLen + Body.size());
    std::string Rec;
    Rec.reserve(4 + Len);
    Rec.append(reinterpret_cast<const char *>(&Len), 4);
    Rec.push_back(Tag);
    if (ExtraLen)
      Rec.append(ExtraHdr, ExtraLen);
    Rec += Body;
    if (Hdr) {
      ringSend(reinterpret_cast<const uint8_t *>(Rec.data()), Rec.size());
      // Dekker-style handoff with armPoll(): our Tail store and the
      // parent's ParentAsleep store are separated from the opposing
      // loads by seq_cst fences on both sides, so either the parent's
      // pre-sleep drain sees this record or we see the parent asleep
      // and ring the bell. (The relay's 10ms poll timeout backstops
      // the protocol regardless.)
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (Hdr->ParentAsleep.load(std::memory_order_relaxed)) {
        char Bell = 1;
        ssize_t Ignored = ::write(WrFd, &Bell, 1); // non-blocking doorbell
        (void)Ignored;
      }
    } else {
      const char *P = Rec.data();
      size_t N = Rec.size();
      while (N > 0) {
        ssize_t W = ::write(WrFd, P, N);
        if (W < 0) {
          if (errno == EINTR)
            continue;
          ::_exit(3); // parent gone; nothing left to report to
        }
        P += W;
        N -= size_t(W);
      }
    }
  }

  /// Child: marks the stream complete (EOF on the pipe / doorbell).
  void childFinish() {
    if (WrFd >= 0) {
      ::close(WrFd);
      WrFd = -1;
    }
  }

  /// Parent: announces the intent to block in poll(). Returns false if
  /// the ring gained bytes since the last drain — the caller must skip
  /// the poll and drain again (the child, seeing ParentAsleep only
  /// after its record was published, may legitimately skip the bell for
  /// exactly those bytes). Pipe transport: always poll, the record
  /// bytes themselves are the wakeup.
  bool armPoll() {
    if (!Hdr)
      return true;
    Hdr->ParentAsleep.store(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return Hdr->Tail.load(std::memory_order_relaxed) ==
           Hdr->Head.load(std::memory_order_relaxed);
  }

  void disarmPoll() {
    if (Hdr)
      Hdr->ParentAsleep.store(0, std::memory_order_relaxed);
  }

  /// Parent: appends every available byte to \p Buf (non-blocking).
  size_t drainInto(std::string &Buf) {
    size_t Got = 0;
    if (Hdr) {
      uint64_t Tail = Hdr->Tail.load(std::memory_order_acquire);
      uint64_t Head = Hdr->Head.load(std::memory_order_relaxed);
      size_t Avail = size_t(Tail - Head);
      if (Avail) {
        size_t Pos = size_t(Head % Hdr->Cap);
        size_t Contig = Avail < Hdr->Cap - Pos ? Avail : Hdr->Cap - Pos;
        Buf.append(reinterpret_cast<const char *>(Data + Pos), Contig);
        if (Avail > Contig)
          Buf.append(reinterpret_cast<const char *>(Data), Avail - Contig);
        Hdr->Head.store(Head + Avail, std::memory_order_release);
        Got = Avail;
      }
      // Clear accumulated doorbell bytes so poll() level-triggers only
      // on fresh records.
      char Scratch[256];
      while (::read(RdFd, Scratch, sizeof(Scratch)) > 0) {
      }
    } else {
      char Chunk[4096];
      for (;;) {
        ssize_t R = ::read(RdFd, Chunk, sizeof(Chunk));
        if (R > 0) {
          Buf.append(Chunk, size_t(R));
          Got += size_t(R);
          continue;
        }
        break; // EAGAIN (no data) or EOF (child finished/died)
      }
    }
    return Got;
  }

private:
  DrawChannel() = default;

  void moveFrom(DrawChannel &O) {
    Hdr = O.Hdr;
    Data = O.Data;
    MapBytes = O.MapBytes;
    RdFd = O.RdFd;
    WrFd = O.WrFd;
    O.Hdr = nullptr;
    O.Data = nullptr;
    O.MapBytes = 0;
    O.RdFd = O.WrFd = -1;
  }

  void destroy() {
    if (Hdr)
      ::munmap(Hdr, MapBytes);
    Hdr = nullptr;
    if (RdFd >= 0)
      ::close(RdFd);
    if (WrFd >= 0)
      ::close(WrFd);
    RdFd = WrFd = -1;
  }

  void ringSend(const uint8_t *Src, size_t N) {
    while (N > 0) {
      uint64_t Head = Hdr->Head.load(std::memory_order_acquire);
      uint64_t Tail = Hdr->Tail.load(std::memory_order_relaxed);
      size_t Free = size_t(Hdr->Cap) - size_t(Tail - Head);
      if (Free == 0) {
        // Ring full: the parent is draining (or about to kill us — the
        // daemon's PDEATHSIG / SIGKILL resolves a stuck writer).
        struct timespec TS = {0, 200 * 1000};
        ::nanosleep(&TS, nullptr);
        continue;
      }
      size_t Chunk = N < Free ? N : Free;
      size_t Pos = size_t(Tail % Hdr->Cap);
      size_t Contig =
          Chunk < size_t(Hdr->Cap) - Pos ? Chunk : size_t(Hdr->Cap) - Pos;
      std::memcpy(Data + Pos, Src, Contig);
      if (Chunk > Contig)
        std::memcpy(Data, Src + Contig, Chunk - Contig);
      Hdr->Tail.store(Tail + Chunk, std::memory_order_release);
      Src += Chunk;
      N -= Chunk;
    }
  }

  RingHdr *Hdr = nullptr;
  uint8_t *Data = nullptr;
  size_t MapBytes = 0;
  int RdFd = -1; ///< parent end (doorbell read / pipe read)
  int WrFd = -1; ///< child end (doorbell write / pipe write)
};

//===----------------------------------------------------------------------===//
// Worker child
//===----------------------------------------------------------------------===//

/// Closes every inherited fd except std{in,out,err} and \p Keep: a
/// sandboxed worker must not be able to scribble on client sockets, the
/// listen socket, or the access log, no matter what the generated code
/// does. Collect-then-close because closing while iterating the fd
/// directory is racy.
void closeInheritedFds(int Keep) {
  std::vector<int> Fds;
  DIR *D = ::opendir("/proc/self/fd");
  if (!D)
    return; // non-Linux fallback: leave fds open (containment is weaker)
  int DirFd = ::dirfd(D);
  while (struct dirent *E = ::readdir(D)) {
    char *End = nullptr;
    long Fd = std::strtol(E->d_name, &End, 10);
    if (End == E->d_name || *End != '\0')
      continue;
    if (Fd <= 2 || int(Fd) == Keep || int(Fd) == DirFd)
      continue;
    Fds.push_back(int(Fd));
  }
  ::closedir(D);
  for (int Fd : Fds)
    ::close(Fd);
}

void installRlimits(const SandboxOptions &SO) {
  // No core dumps from injected / organic worker crashes.
  struct rlimit NoCore = {0, 0};
  ::setrlimit(RLIMIT_CORE, &NoCore);
  if (SO.RssLimitBytes > 0) {
    struct rlimit AS = {rlim_t(SO.RssLimitBytes), rlim_t(SO.RssLimitBytes)};
    ::setrlimit(RLIMIT_AS, &AS);
  }
  if (SO.CpuLimitSecs > 0) {
    struct rlimit CPU = {rlim_t(SO.CpuLimitSecs), rlim_t(SO.CpuLimitSecs)};
    ::setrlimit(RLIMIT_CPU, &CPU);
  }
}

/// Everything that runs in the forked worker. Never returns: the child
/// always leaves through _exit (or a crash, which is the point).
[[noreturn]] void workerChildMain(ServedModel &M, const SampleRequest &SR,
                                  uint64_t ReqId, const SandboxOptions &SO,
                                  DrawChannel &Ch) {
#ifdef __linux__
  // Die with the daemon: an orphaned worker must not outlive a crashed
  // or killed parent.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  // Fork hygiene. Only the forking thread exists in the child, so every
  // lock another daemon thread held at the fork instant is permanently
  // unusable: the recorder flips off lock-free, the pool registry, the
  // native image cache and the fault injector swap in fresh mutexes,
  // and nothing else in the sampling path takes daemon locks (the
  // artifact is a private CoW copy, so even the per-artifact mutex is
  // unnecessary here).
  Recorder::global().disableInForkedChild();
  ThreadPool::resetAfterFork();
  NativeImageCache::global().reinitAfterFork();
  robust::FaultInjector::global().reinitAfterFork();
  // The daemon's signal dispositions are not this process's business.
  ::signal(SIGTERM, SIG_DFL);
  ::signal(SIGINT, SIG_DFL);
  // Crash fault classes arm only here (and in opted-in fuzz drivers):
  // the daemon itself must never consume — or die on — a crash probe.
  robust::setCrashFaultsEnabled(true);
  closeInheritedFds(Ch.childFd());
  installRlimits(SO);

  bool DeadlineHit = false;
  Json Diag = Json::object();
  Status St = Status::success();
  try {
    St = runRequestChains(
        *M.Prog, SR, M.Source,
        [&](int Chain, uint64_t Index, const std::vector<std::string> &Names,
            const std::vector<const Value *> &Row, double LogJoint) -> Status {
          if (SO.HasDeadline &&
              std::chrono::steady_clock::now() >= SO.DeadlineAt) {
            DeadlineHit = true;
            return Status::error("deadline exceeded");
          }
          Json F = drawFrame(ReqId, Chain, Index, Names, Row, LogJoint);
          char Extra[12];
          uint32_t C32 = uint32_t(Chain);
          uint64_t I64 = Index;
          std::memcpy(Extra, &C32, 4);
          std::memcpy(Extra + 4, &I64, 8);
          Ch.sendRecord('D', Extra, sizeof(Extra), F.dump());
          return Status::success();
        },
        [&](int Chain, const SampleSet &Set) {
          // Non-finite R-hat (undefined on constant chains) is skipped:
          // it has no JSON encoding and no gauge value.
          Json R = Json::object(), E = Json::object();
          for (const auto &KV : Set.Rhat)
            if (std::isfinite(KV.second))
              R.set(KV.first, Json::real(KV.second));
          for (const auto &KV : Set.Ess)
            if (std::isfinite(KV.second))
              E.set(KV.first, Json::real(KV.second));
          Json D = Json::object();
          D.set("rhat", std::move(R));
          D.set("ess", std::move(E));
          Diag.set(strFormat("%d", Chain), std::move(D));
        });
  } catch (...) {
    St = Status::error("worker: unhandled exception");
  }

  Json S = Json::object();
  S.set("ok", Json::boolean(St.ok()));
  if (!St.ok()) {
    S.set("code", Json::str(DeadlineHit ? "deadline" : "exec-error"));
    S.set("message", Json::str(St.message()));
  }
  S.set("diag", std::move(Diag));
  Ch.sendRecord('S', nullptr, 0, S.dump());
  Ch.childFinish();
  ::_exit(0);
}

} // namespace

//===----------------------------------------------------------------------===//
// Parent relay
//===----------------------------------------------------------------------===//

Result<WorkerResult> augur::serve::runSandboxed(
    ServedModel &M, const SampleRequest &SR, uint64_t ReqId,
    const SandboxOptions &SO, StreamCursor &Cursor,
    const std::function<Status(const std::string &FrameJson)> &Forward,
    const std::function<bool()> &KeepGoing) {
  AUGUR_ASSIGN_OR_RETURN(DrawChannel Ch,
                         DrawChannel::create(SO.RingBytes, SO.ForcePipe));
  pid_t Pid = ::fork();
  if (Pid < 0)
    return Status::error(
        strFormat("sandbox: fork failed: %s", std::strerror(errno)));
  if (Pid == 0) {
    Ch.childAfterFork();
    workerChildMain(M, SR, ReqId, SO, Ch); // noreturn
  }
  Ch.parentAfterFork();

  WorkerResult WR;
  std::string Buf;
  size_t Off = 0;
  bool SawStatus = false, Corrupt = false, Aborted = false;
  bool TermSent = false, KillSent = false, DeadlineKill = false;
  bool Reaped = false;
  int WStatus = 0;
  std::chrono::steady_clock::time_point GraceAt;
  int Chains = SR.Chains < 1 ? 1 : SR.Chains;

  // Parses every complete record in Buf. Draw records behind the cursor
  // are bit-identical replays from a retried/hedged attempt and are
  // dropped; a record that is malformed, out of range, or AHEAD of the
  // cursor means the worker scribbled on the ring — the attempt is
  // classified as crashed, never forwarded.
  auto processRecords = [&]() {
    while (!SawStatus && !Corrupt && !Aborted) {
      if (Buf.size() - Off < 4)
        break;
      uint32_t Len = 0;
      std::memcpy(&Len, Buf.data() + Off, 4);
      if (Len < 1 || Len > MaxFrameBytes) {
        Corrupt = true;
        break;
      }
      if (Buf.size() - Off < 4ull + Len)
        break;
      const char *P = Buf.data() + Off + 4;
      char Tag = P[0];
      if (Tag == 'D' && Len >= 13) {
        uint32_t Chain = 0;
        uint64_t Index = 0;
        std::memcpy(&Chain, P + 1, 4);
        std::memcpy(&Index, P + 5, 8);
        if (Chain >= uint32_t(Chains) ||
            int64_t(Index) > Cursor.next(int64_t(Chain))) {
          Corrupt = true;
          break;
        }
        if (Cursor.shouldForward(int64_t(Chain), int64_t(Index))) {
          Status WSt = Forward(std::string(P + 13, Len - 13));
          if (!WSt.ok()) {
            Aborted = true;
            break;
          }
          Cursor.advance(int64_t(Chain));
          ++WR.DrawsForwarded;
        }
      } else if (Tag == 'S') {
        Result<Json> SJ = parseJson(std::string(P + 1, Len - 1));
        if (!SJ.ok()) {
          Corrupt = true;
          break;
        }
        if (SJ->getBool("ok", false)) {
          WR.End = WorkerEnd::Completed;
        } else {
          WR.End = WorkerEnd::Failed;
          WR.Code = SJ->getStr("code", "exec-error");
          WR.Message = SJ->getStr("message", "sampling failed in worker");
        }
        if (const Json *D = SJ->find("diag"))
          WR.Diag = *D;
        SawStatus = true;
      } else {
        Corrupt = true;
        break;
      }
      Off += 4ull + Len;
    }
    if (Off > (64u << 10) && Off * 2 > Buf.size()) {
      Buf.erase(0, Off);
      Off = 0;
    }
  };

  for (;;) {
    Ch.drainInto(Buf);
    processRecords();
    if (Corrupt || Aborted)
      break;
    if (!KeepGoing()) {
      Aborted = true;
      break;
    }
    if (!Reaped) {
      pid_t R = ::waitpid(Pid, &WStatus, WNOHANG);
      if (R == Pid)
        Reaped = true;
    }
    if (Reaped) {
      // Everything the child ever wrote is already in the ring/pipe;
      // one final drain settles the record stream.
      Ch.drainInto(Buf);
      processRecords();
      break;
    }
    if (SO.HasDeadline && !KillSent) {
      auto Now = std::chrono::steady_clock::now();
      if (!TermSent && Now >= SO.DeadlineAt) {
        // Deadline propagation: SIGTERM first (a cooperative worker may
        // still deliver a structured status), SIGKILL after the grace
        // period (a wedged one — worker-hang ignores SIGTERM — cannot
        // hold this pool slot past the deadline).
        ::kill(Pid, SIGTERM);
        TermSent = true;
        DeadlineKill = true;
        GraceAt = Now + std::chrono::milliseconds(
                            SO.KillGraceMillis < 0 ? 0 : SO.KillGraceMillis);
      } else if (TermSent && Now >= GraceAt) {
        ::kill(Pid, SIGKILL);
        KillSent = true;
      }
    }
    if (Ch.armPoll()) {
      pollfd PF = {Ch.pollFd(), POLLIN, 0};
      ::poll(&PF, 1, 10);
    }
    Ch.disarmPoll();
  }

  if ((Corrupt || Aborted) && !Reaped)
    ::kill(Pid, SIGKILL);
  if (!Reaped) {
    // The child is dead or dying (status delivered and _exit imminent,
    // or SIGKILL sent); the blocking reap is bounded.
    ::waitpid(Pid, &WStatus, 0);
    Reaped = true;
  }

  if (Aborted) {
    WR.End = WorkerEnd::ClientGone;
    WR.Message = "client disconnected or daemon stopping";
    return WR;
  }
  if (SawStatus && !Corrupt)
    return WR; // Completed or Failed, classified from the status record
  if (DeadlineKill) {
    WR.End = WorkerEnd::DeadlineKilled;
    WR.Message = "deadline expired; worker killed";
    return WR;
  }
  // No status record: the worker crashed (or corrupted its stream,
  // which gets the same classification — the output is untrustworthy).
  WR.End = WorkerEnd::Crashed;
  if (WIFSIGNALED(WStatus)) {
    WR.Signal = WTERMSIG(WStatus);
    WR.Message = strFormat("worker died on signal %d (%s)", WR.Signal,
                           strsignal(WR.Signal));
  } else if (WIFEXITED(WStatus)) {
    WR.ExitCode = WEXITSTATUS(WStatus);
    WR.Message = Corrupt
                     ? "worker corrupted its draw stream"
                     : strFormat("worker exited with status %d without "
                                 "reporting a result",
                                 WR.ExitCode);
  } else {
    WR.Message = "worker ended abnormally";
  }
  return WR;
}
