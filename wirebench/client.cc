/**
 * @file
 * The `client` subcommand: four closed-loop protocol-v2 clients,
 * one loopback TCP connection each, drive a running zoomie_server
 * through the bringup, simulate and inspect phases and print one
 * JSON summary line. Set-up (connect, hello, session opens) ends
 * with a "setup-done" line so the caller can time it.
 */

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "wirebench.hh"

namespace wirebench {

namespace {

/** Line-framed JSON over one loopback TCP connection. */
class TcpChannel : public Channel
{
  public:
    explicit TcpChannel(uint16_t port)
    {
        _fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (_fd < 0)
            throw std::runtime_error("socket() failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(_fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(_fd);
            throw std::runtime_error("cannot connect to port " +
                                     std::to_string(port));
        }
        int one = 1;
        ::setsockopt(_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        // A wedged server turns into dropped replies, not a hang.
        timeval timeout{60, 0};
        ::setsockopt(_fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
    }

    ~TcpChannel() override { ::close(_fd); }

    TcpChannel(const TcpChannel &) = delete;
    TcpChannel &operator=(const TcpChannel &) = delete;

    Exchange
    call(const Json &request) override
    {
        Exchange ex;
        std::string out = request.encode();
        out += '\n';
        ex.sentAt = Clock::now();
        if (!sendAll(out)) {
            ex.dropped = true;
            ex.replyAt = Clock::now();
            return ex;
        }
        std::string line;
        while (readLine(line)) {
            Clock::time_point at = Clock::now();
            std::optional<Json> message = Json::parse(line);
            if (!message)
                break;
            const Json *type = message->find("type");
            if (type && type->isString() && type->asString() == "reply") {
                ex.reply = std::move(*message);
                ex.replyAt = at;
                return ex;
            }
            ex.events.push_back(std::move(*message));
            ex.eventAt.push_back(at);
        }
        ex.dropped = true;
        ex.replyAt = Clock::now();
        return ex;
    }

  private:
    bool
    sendAll(const std::string &data)
    {
        size_t done = 0;
        while (done < data.size()) {
            ssize_t n = ::send(_fd, data.data() + done,
                               data.size() - done, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            done += size_t(n);
        }
        return true;
    }

    bool
    readLine(std::string &line)
    {
        for (;;) {
            size_t end = _buffer.find('\n', _start);
            if (end != std::string::npos) {
                line.assign(_buffer, _start, end - _start);
                _start = end + 1;
                return true;
            }
            _buffer.erase(0, _start);
            _start = 0;
            char chunk[1 << 16];
            ssize_t n = ::recv(_fd, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return false;
            _buffer.append(chunk, size_t(n));
        }
    }

    int _fd = -1;
    std::string _buffer;
    size_t _start = 0;
};

/** One client: its connection, sessions and inspect state. */
struct Tenant
{
    std::vector<Design> pool;
    std::unique_ptr<UploadStream> uploads;
    std::unique_ptr<TcpChannel> channel;
    Log setupLog;
    std::unique_ptr<Client> client;
    std::unique_ptr<Inspector> inspector;
    std::map<std::string, uint64_t> sessions; ///< by backend
    std::string error;
};

/** Run @p body(c) on one thread per client and join them all. */
template <class Body>
void
onEveryClient(Body body)
{
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c)
        threads.emplace_back(body, c);
    for (std::thread &thread : threads)
        thread.join();
}

Clock::time_point
after(Clock::time_point start, double seconds)
{
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
}

void
setUp(Tenant &t, unsigned c, const ClientOptions &options)
{
    t.pool = designPool(options.seed, c);
    t.uploads = std::make_unique<UploadStream>(t.pool, options.seed, c);
    try {
        t.channel = std::make_unique<TcpChannel>(options.port);
    } catch (const std::exception &e) {
        t.error = e.what();
        return;
    }
    t.client = std::make_unique<Client>(*t.channel, t.setupLog);
    if (!hello(*t.client)) {
        t.error = "hello failed";
        return;
    }
    for (const char *backend : {"fabric", "sim", "jit"}) {
        t.sessions[backend] = openServSoc(*t.client, backend);
        if (t.sessions[backend] == 0) {
            t.error = std::string("cannot open serv_soc on ") + backend;
            return;
        }
    }
    uint64_t inspected = openServSoc(*t.client, "fabric");
    t.inspector = std::make_unique<Inspector>(
        *t.client, inspected, subSeed(options.seed, Stream::Inspect, c));
    if (inspected == 0 || !t.inspector->setup())
        t.error = "cannot set up the inspect session";
}

/** Latency summary of class @p cls across @p log. */
Json
classSummary(const Log &log, const std::string &cls)
{
    auto it = log.ms.find(cls);
    return summary(it == log.ms.end() ? std::vector<double>{}
                                      : it->second);
}

/** What the phases accumulate over every round. */
struct Totals
{
    Log all;
    Log bringup;
    double bringupSeconds = 0;
    Log inspect;
    std::map<std::string, Log> simulate;      ///< by group
    std::map<std::string, unsigned> members;  ///< clients per group
};

void
bringupSlice(std::vector<Tenant> &tenants, double seconds, Totals &totals)
{
    std::vector<Log> logs(kClients);
    Clock::time_point start = Clock::now();
    Clock::time_point deadline = after(start, seconds);
    onEveryClient([&](unsigned c) {
        Tenant &t = tenants[c];
        t.client->setLog(logs[c]);
        while (Clock::now() < deadline)
            bringupRound(*t.client, t.uploads->next());
    });
    totals.bringupSeconds += msBetween(start, Clock::now()) / 1000;
    for (const Log &log : logs) {
        totals.bringup.merge(log);
        totals.all.merge(log);
    }
}

/** One simulate slice: client c runs on backends[c] and reports
 *  under groups[c]. */
void
simulateSlice(std::vector<Tenant> &tenants,
              const std::array<const char *, kClients> &backends,
              const std::array<const char *, kClients> &groups,
              double seconds, Totals &totals)
{
    std::vector<Log> logs(kClients);
    Clock::time_point deadline = after(Clock::now(), seconds);
    onEveryClient([&](unsigned c) {
        Tenant &t = tenants[c];
        t.client->setLog(logs[c]);
        uint64_t session = t.sessions[backends[c]];
        while (Clock::now() < deadline)
            simulateRun(*t.client, std::string("run.") + groups[c],
                        session);
    });
    std::map<std::string, unsigned> members;
    for (unsigned c = 0; c < kClients; ++c) {
        ++members[groups[c]];
        totals.simulate[groups[c]].merge(logs[c]);
        totals.all.merge(logs[c]);
    }
    for (const auto &[group, count] : members)
        totals.members[group] = count;
}

void
inspectSlice(std::vector<Tenant> &tenants, double seconds, Totals &totals)
{
    std::vector<Log> logs(kClients);
    Clock::time_point deadline = after(Clock::now(), seconds);
    onEveryClient([&](unsigned c) {
        Tenant &t = tenants[c];
        t.client->setLog(logs[c]);
        while (Clock::now() < deadline)
            t.inspector->step();
    });
    for (const Log &log : logs) {
        totals.inspect.merge(log);
        totals.all.merge(log);
    }
}

/** One slice of every phase, lasting @p bringup, @p simulate and
 *  @p inspect seconds. */
void
playRound(std::vector<Tenant> &tenants, double bringup, double simulate,
          double inspect, Totals &totals)
{
    bringupSlice(tenants, bringup, totals);
    // The fabric is ~40x slower than the jit, so its slice must be
    // long enough to hold a few requests per client. The mixed slice's
    // jit latencies depend on where they fall among the fabric and sim
    // quanta, so it gets the most time; the all-jit slice only has to
    // give the solo rate that jit_mixed_share divides by.
    simulateSlice(tenants, {"fabric", "fabric", "fabric", "fabric"},
                  {"fabric", "fabric", "fabric", "fabric"}, simulate * 0.3,
                  totals);
    simulateSlice(tenants, {"sim", "sim", "sim", "sim"},
                  {"sim", "sim", "sim", "sim"}, simulate * 0.2, totals);
    simulateSlice(tenants, {"jit", "jit", "jit", "jit"},
                  {"jit", "jit", "jit", "jit"}, simulate * 0.1, totals);
    simulateSlice(tenants, {"fabric", "sim", "jit", "jit"},
                  {"fabric_mixed", "sim_mixed", "jit_mixed", "jit_mixed"},
                  simulate * 0.4, totals);
    inspectSlice(tenants, inspect, totals);
}

/**
 * Every phase runs once in each of kRounds rounds, so a slow stretch
 * of the host lands on all metrics alike.
 */
constexpr unsigned kRounds = 6;

/** Seconds of the untimed warm-up round: bringup, simulate, inspect. */
constexpr double kWarmup[3] = {0.5, 1.5, 0.5};

Json
runPhases(std::vector<Tenant> &tenants, const ClientOptions &options,
          Totals &totals)
{
    // The server's code paths and a host that sat idle settle in an
    // untimed round first; only its operations and failures count.
    Totals warm;
    playRound(tenants, kWarmup[0], kWarmup[1], kWarmup[2], warm);
    totals.all.merge(warm.all);

    double rounds = double(kRounds);
    for (unsigned r = 0; r < kRounds; ++r)
        playRound(tenants, options.bringupSeconds / rounds,
                  options.simulateSeconds / rounds,
                  options.inspectSeconds / rounds, totals);

    const Log &b = totals.bringup;
    Json bringup = Json::object();
    bringup.set("seconds", totals.bringupSeconds);
    bringup.set("sessions", b.completed);
    bringup.set("uploads", b.uploads);
    bringup.set("repeats", b.repeats);
    bringup.set("open_source", classSummary(b, "open_source"));
    bringup.set("first_stop", summary(b.firstStopMs));
    for (const char *cls : {"break", "run", "print", "close"})
        bringup.set(cls, classSummary(b, cls));

    Json simulate = Json::object();
    for (const auto &[group, log] : totals.simulate) {
        // The clients of a group run in step, each with one run of
        // kRunCycles in flight: the group's rate is members x cycles
        // over the median run latency, which a short slow stretch of
        // the host moves less than a total over the run would.
        Json runMs = classSummary(log, "run." + group);
        double p50 = runMs.find("p50")->asDouble();
        Json entry = Json::object();
        entry.set("cycles_per_s", p50 > 0 ? totals.members[group] *
                                                double(kRunCycles) /
                                                (p50 / 1000)
                                          : 0.0);
        entry.set("clients", totals.members[group]);
        entry.set("cycles", log.cycles);
        entry.set("run_ms", std::move(runMs));
        entry.set("run_cycles", kRunCycles);
        simulate.set(group, std::move(entry));
    }

    Json inspect = Json::object();
    std::vector<double> all;
    for (const auto &[cls, samples] : totals.inspect.ms) {
        inspect.set(cls, summary(samples));
        all.insert(all.end(), samples.begin(), samples.end());
    }
    inspect.set("all", summary(all));

    Json out = Json::object();
    out.set("bringup", std::move(bringup));
    out.set("simulate", std::move(simulate));
    out.set("inspect", std::move(inspect));
    return out;
}

} // namespace

int
runClient(const ClientOptions &options)
{
    // One client after another: in parallel, whether a reply waits out a
    // delayed ACK on one of the four connections decides the set-up time.
    std::vector<Tenant> tenants(kClients);
    for (unsigned c = 0; c < kClients; ++c)
        setUp(tenants[c], c, options);
    Log total;
    for (const Tenant &t : tenants) {
        total.merge(t.setupLog);
        if (!t.error.empty()) {
            std::fprintf(stderr, "wirebench: set-up failed: %s\n",
                         t.error.c_str());
            for (const std::string &error : t.setupLog.errors)
                std::fprintf(stderr, "wirebench:   %s\n", error.c_str());
            return 3;
        }
    }
    std::printf("setup-done\n");
    std::fflush(stdout);
    if (options.setupOnly)
        return 0;

    Totals totals;
    totals.all = total;
    Json out = runPhases(tenants, options, totals);
    out.set("attempted", totals.all.attempted);
    out.set("failed", totals.all.failed);
    Json errors = Json::array();
    for (const std::string &error : totals.all.errors)
        errors.push(error);
    out.set("errors", std::move(errors));
    std::printf("%s\n", out.encode().c_str());
    return 0;
}

} // namespace wirebench
