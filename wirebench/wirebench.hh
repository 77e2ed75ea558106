/**
 * @file
 * Shared pieces of the wire-level benchmark driver: the seeded input
 * generators, the request channel that both the loopback-TCP client
 * and the in-process replay drive, and the three workload scenarios.
 * The scenarios are written once against Channel, so the traced
 * replay sends exactly the requests the wire run sends at a seed.
 */

#ifndef WIREBENCH_WIREBENCH_HH
#define WIREBENCH_WIREBENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rdp/json.hh"

namespace wirebench {

using zoomie::rdp::Json;
using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/** splitmix64: seedable and identical on every platform. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : _state(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (_state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [lo, hi]. */
    uint64_t range(uint64_t lo, uint64_t hi)
    {
        return lo + next() % (hi - lo + 1);
    }

    bool percent(unsigned p) { return next() % 100 < p; }

  private:
    uint64_t _state;
};

/** Independent random streams under one benchmark seed. */
enum class Stream : uint64_t { Pool = 1, Uploads, Inspect, Plane };

/** Seed of stream @p stream for client @p client. */
uint64_t subSeed(uint64_t seed, Stream stream, uint64_t client);

/** Concurrent clients (and connections) of every wire workload. */
inline constexpr unsigned kClients = 4;

/** The scheduler's default cycles per slice. */
inline constexpr uint64_t kDefaultQuantum = 2048;

// ---- bringup inputs ---------------------------------------------------

/** The counter every generated design carries; watch slot 0. */
inline constexpr const char *kCounter = "mut/cnt";

/**
 * Memory-free uploads of more than this many nodes and at most 300
 * nodes are never generated: session.cc puts them on the small test
 * device, which runs out of LUTs from about 170 nodes and aborts the
 * server in the placer.
 */
inline constexpr size_t kSmallMaxNodes = 120;

/** One generated Verilog design. */
struct Design
{
    std::string text;
    std::vector<std::string> assertions;
    unsigned regs = 0;   ///< chained 16-bit add/xor registers
    bool memory = false; ///< carries a 16x16 memory
    bool large = false;  ///< memory-free, past 300 nodes
};

/** Fresh designs per client; uploads walk the pool in order. Sized
 *  so that a client runs out only after some 400 uploads. */
inline constexpr size_t kPoolSize = 320;

/** The pool of fresh designs client @p client uploads at @p seed. */
std::vector<Design> designPool(uint64_t seed, unsigned client);

/** One `open_source` → `break` → `run` → `print` → `close` round. */
struct Upload
{
    const Design *design = nullptr;
    bool repeat = false; ///< re-sends a text this client sent before
    uint64_t breakValue = 0;
    uint64_t runCycles = 0;
};

/** The seeded upload sequence of one client. */
class UploadStream
{
  public:
    UploadStream(const std::vector<Design> &pool, uint64_t seed,
                 unsigned client);

    Upload next();

  private:
    const std::vector<Design> *_pool;
    Rng _rng;
    size_t _sent = 0;    ///< pool entries sent so far
    size_t _uploads = 0; ///< uploads so far, repeats included
};

// ---- the request channel ---------------------------------------------

/** What one request produced, as its sender saw it. */
struct Exchange
{
    std::vector<Json> events;
    std::vector<Clock::time_point> eventAt;
    Json reply;
    Clock::time_point sentAt;
    Clock::time_point replyAt;
    bool dropped = false; ///< no reply: connection lost or garbled
    bool failed = false;  ///< counted as a failed operation

    double ms() const { return msBetween(sentAt, replyAt); }

    /** Index of the first event of @p type, or -1. */
    int event(const std::string &type) const;
};

/** Sends one request; returns its events and reply. */
class Channel
{
  public:
    virtual ~Channel() = default;
    virtual Exchange call(const Json &request) = 0;
};

/** Latency samples and failure accounting of one client. */
struct Log
{
    std::map<std::string, std::vector<double>> ms; ///< by class
    std::vector<double> firstStopMs;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors; ///< the first few failures
    uint64_t uploads = 0;
    uint64_t repeats = 0;
    uint64_t completed = 0; ///< bringup rounds that fully succeeded
    uint64_t cycles = 0; ///< cycles_run of successful `run`s

    void merge(const Log &other);
};

/** A channel plus the log it reports into. */
class Client
{
  public:
    Client(Channel &channel, Log &log) : _channel(&channel), _log(&log)
    {
    }

    void setLog(Log &log) { _log = &log; }
    Log &log() { return *_log; }

    /**
     * Send @p request (numbered with a fresh id) as one operation.
     * Its latency is recorded under class @p cls (none when empty);
     * a dropped connection or an `ok:false` reply counts it failed.
     */
    Exchange send(const std::string &cls, Json request);

    /** Count @p ex failed, once, unless @p good. */
    bool verify(Exchange &ex, bool good, const std::string &what);

  private:
    Channel *_channel;
    Log *_log;
    uint64_t _nextId = 1;
};

/** A request object: {"cmd": cmd, args...}. */
Json request(const std::string &cmd,
             std::initializer_list<std::pair<const char *, Json>> args =
                 {});

/** Unsigned field of a reply or event (0 when absent). */
uint64_t field(const Json &message, const char *key);

// ---- scenarios ---------------------------------------------------------

/** Negotiate protocol v2. */
bool hello(Client &client);

/**
 * One bringup round on the fabric backend. @p afterOpen, when set,
 * runs right after a successful `open_source` with the new session
 * id and the open exchange (the replay hooks its layer checks here).
 */
void bringupRound(
    Client &client, const Upload &upload,
    const std::function<void(uint64_t, const Exchange &)> &afterOpen =
        {});

/** The serv_soc register every session watches on slot 0: a 12-bit
 *  counter of MUT cycles. */
inline constexpr const char *kMcycle = "cluster0/core0/mcycle";

/** Open a serv_soc session on @p backend; 0 on failure. */
uint64_t openServSoc(Client &client, const std::string &backend);

/** Cycles of every simulate `run`: ten default quanta. */
inline constexpr uint64_t kRunCycles = 10 * kDefaultQuantum;

/** One `run` of kRunCycles; returns the cycles run. */
uint64_t simulateRun(Client &client, const std::string &cls,
                     uint64_t session);

/**
 * The seeded short-command mix against one paused fabric serv_soc
 * session. Tracks the session's cycle and every value it wrote, so
 * each reply is checked against what it must say.
 */
class Inspector
{
  public:
    Inspector(Client &client, uint64_t session, uint64_t seed);

    /** Pause the session and learn its snapshot ring. */
    bool setup();

    /** Send the next seeded operation. */
    void step();

  private:
    void print();
    void readMem();
    void regs();
    void snapshots();
    void force();
    void forceMem();
    void snapshot();
    void restoreId();
    void restoreCycle();
    void stepOne();
    void breakRun();
    void trace();
    /** The design moved: drop every remembered value. */
    void forget();
    Json req(const std::string &cmd,
             std::initializer_list<std::pair<const char *, Json>> args =
                 {});

    Client *_client;
    uint64_t _session;
    Rng _rng;
    uint64_t _cycle = 0;
    size_t _capacity = 0;
    size_t _pinnedCount = 0;
    std::vector<uint64_t> _pinned; ///< ids this client captured
    /** Set while the state equals this pinned snapshot. */
    std::optional<uint64_t> _atPinned;
    std::map<std::string, uint64_t> _regs;
    std::map<std::pair<std::string, uint64_t>, uint64_t> _mem;
};

// ---- percentiles -------------------------------------------------------

/** Linear-interpolated quantile @p q of @p values (0 when empty). */
double quantile(std::vector<double> values, double q);

/** {"p50", "p95", "n"} of @p values. */
Json summary(const std::vector<double> &values);

// ---- subcommands ------------------------------------------------------

int runSelfcheck(uint64_t seed);

struct ClientOptions
{
    uint16_t port = 0;
    uint64_t seed = 1;
    double bringupSeconds = 1;
    double simulateSeconds = 1;
    double inspectSeconds = 1;
    bool setupOnly = false;
};
int runClient(const ClientOptions &options);

/** Replay the inputs of @p seed; write the spans to @p spansPath. */
int runReplay(uint64_t seed, const std::string &spansPath);

} // namespace wirebench

#endif // WIREBENCH_WIREBENCH_HH
