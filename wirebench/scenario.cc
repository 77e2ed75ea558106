/**
 * @file
 * Operation accounting and the three workload scenarios, written
 * against Channel so the wire client and the in-process replay run
 * the same requests and the same reply checks.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/bits.hh"
#include "wirebench.hh"

namespace wirebench {

// ---- accounting -------------------------------------------------------

int
Exchange::event(const std::string &type) const
{
    for (size_t i = 0; i < events.size(); ++i) {
        const Json *t = events[i].find("type");
        if (t && t->isString() && t->asString() == type)
            return int(i);
    }
    return -1;
}

void
Log::merge(const Log &other)
{
    for (const auto &[cls, samples] : other.ms)
        ms[cls].insert(ms[cls].end(), samples.begin(), samples.end());
    firstStopMs.insert(firstStopMs.end(), other.firstStopMs.begin(),
                       other.firstStopMs.end());
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string &error : other.errors)
        if (errors.size() < 16)
            errors.push_back(error);
    uploads += other.uploads;
    repeats += other.repeats;
    completed += other.completed;
    cycles += other.cycles;
}

Exchange
Client::send(const std::string &cls, Json req)
{
    std::string cmd = req.find("cmd")->asString();
    req.set("id", _nextId++);
    ++_log->attempted;
    Exchange ex = _channel->call(req);
    if (ex.dropped) {
        verify(ex, false, cmd + ": no reply (connection dropped)");
        return ex;
    }
    if (!cls.empty())
        _log->ms[cls].push_back(ex.ms());
    const Json *ok = ex.reply.find("ok");
    if (!ok || !ok->asBool()) {
        const Json *error = ex.reply.find("error");
        const Json *detail = ex.reply.find("detail");
        verify(ex, false,
               cmd + ": " + (error ? error->asString() : "?") + ": " +
                   (detail ? detail->asString() : ""));
    }
    return ex;
}

bool
Client::verify(Exchange &ex, bool good, const std::string &what)
{
    if (!good && !ex.failed) {
        ex.failed = true;
        ++_log->failed;
        if (_log->errors.size() < 16)
            _log->errors.push_back(what);
    }
    return good;
}

Json
request(const std::string &cmd,
        std::initializer_list<std::pair<const char *, Json>> args)
{
    Json out = Json::object();
    out.set("cmd", cmd);
    for (const auto &[key, value] : args)
        out.set(key, value);
    return out;
}

uint64_t
field(const Json &message, const char *key)
{
    const Json *value = message.find(key);
    return value && value->isInt() ? value->asU64() : 0;
}

namespace {

/** A snapshot id travels as a hex string ("0x..."). */
uint64_t
snapshotId(const Json &holder)
{
    const Json *snap = holder.find("snapshot");
    const Json *id = snap ? snap->find("id") : nullptr;
    if (!id || !id->isString())
        return 0;
    return std::strtoull(id->asString().c_str(), nullptr, 16);
}

Json
strings(std::initializer_list<std::string> items)
{
    Json out = Json::array();
    for (const std::string &item : items)
        out.push(item);
    return out;
}

} // namespace

// ---- scenarios ---------------------------------------------------------

bool
hello(Client &client)
{
    Exchange ex = client.send("", request("hello", {{"version", 2}}));
    return !ex.failed &&
           client.verify(ex, field(ex.reply, "version") == 2,
                         "hello: protocol v2 refused");
}

void
bringupRound(
    Client &client, const Upload &upload,
    const std::function<void(uint64_t, const Exchange &)> &afterOpen)
{
    Log &log = client.log();
    ++log.uploads;
    if (upload.repeat)
        ++log.repeats;

    Json open = request("open_source", {{"text", upload.design->text},
                                        {"backend", "fabric"},
                                        {"watch", strings({kCounter})}});
    if (!upload.design->assertions.empty()) {
        Json asserts = Json::array();
        for (const std::string &text : upload.design->assertions)
            asserts.push(text);
        open.set("assertions", std::move(asserts));
    }
    Exchange opened = client.send("open_source", std::move(open));
    if (opened.failed)
        return;
    uint64_t session = field(opened.reply, "session");
    if (afterOpen)
        afterOpen(session, opened);

    bool good = true;
    Exchange brk = client.send(
        "break", request("break", {{"session", session},
                                   {"slot", 0},
                                   {"value", upload.breakValue}}));
    good = good && !brk.failed;
    if (good) {
        Exchange run = client.send(
            "run", request("run", {{"session", session},
                                   {"n", upload.runCycles}}));
        if (!run.failed) {
            int stop = run.event("dbg_stop");
            client.verify(run, stop >= 0, "run: no dbg_stop");
            client.verify(run,
                          field(run.reply, "cycles_run") ==
                              upload.runCycles,
                          "run: cycles_run differs from n");
            if (stop >= 0)
                log.firstStopMs.push_back(
                    msBetween(opened.sentAt, run.eventAt[stop]));
        }
        good = good && !run.failed;
        Exchange print = client.send(
            "print", request("print", {{"session", session},
                                       {"name", kCounter}}));
        if (!print.failed)
            client.verify(print,
                          field(print.reply, "value") ==
                              upload.breakValue,
                          "print: counter differs from the break value");
        good = good && !print.failed;
    }
    Exchange closed =
        client.send("close", request("close", {{"session", session}}));
    if (good && !closed.failed)
        ++log.completed;
}

uint64_t
openServSoc(Client &client, const std::string &backend)
{
    Exchange ex = client.send(
        "", request("open", {{"design", "serv_soc"},
                             {"backend", backend},
                             {"watch", strings({kMcycle})}}));
    return ex.failed ? 0 : field(ex.reply, "session");
}

uint64_t
simulateRun(Client &client, const std::string &cls, uint64_t session)
{
    uint64_t n = kRunCycles;
    Exchange ex = client.send(
        cls, request("run", {{"session", session}, {"n", n}}));
    if (ex.failed)
        return 0;
    if (!client.verify(ex, field(ex.reply, "cycles_run") == n,
                       "run: cycles_run differs from n"))
        return 0;
    client.log().cycles += n;
    return n;
}

// ---- inspect -----------------------------------------------------------

namespace {

struct RegTarget
{
    const char *name;
    unsigned width;
};

/** Registers the mix forces and reads (never the watched counter). */
const RegTarget kRegs[] = {
    {"cluster0/core0/acc", 32},     {"cluster0/core1/acc", 32},
    {"cluster0/core0/rs1", 32},     {"cluster0/core1/rs2", 32},
    {"cluster0/core0/out_val", 32}, {"cluster0/core1/tstamp", 20},
};

struct MemTarget
{
    const char *name;
    unsigned width;
    uint64_t depth;
};

const MemTarget kMems[] = {
    {"cluster0/core0/rf", 10, 64},
    {"cluster0/mem/bank0", 36, 1024},
};

const char *const kScopes[] = {"cluster0/core0/", "cluster0/core1/"};

constexpr uint64_t kMcycleMod = 4096;

} // namespace

Inspector::Inspector(Client &client, uint64_t session, uint64_t seed)
    : _client(&client), _session(session), _rng(seed)
{
}

Json
Inspector::req(const std::string &cmd,
               std::initializer_list<std::pair<const char *, Json>> args)
{
    Json out = request(cmd, args);
    out.set("session", _session);
    return out;
}

void
Inspector::forget()
{
    _regs.clear();
    _mem.clear();
    _atPinned.reset();
}

bool
Inspector::setup()
{
    Exchange paused = _client->send("", req("pause"));
    if (paused.failed)
        return false;
    _cycle = field(paused.reply, "cycle");
    Exchange list = _client->send("", req("snapshots"));
    if (list.failed)
        return false;
    _capacity = field(list.reply, "capacity");
    for (const Json &entry : list.reply.find("snapshots")->items())
        if (const Json *pinned = entry.find("pinned");
            pinned && pinned->asBool())
            ++_pinnedCount;
    return _client->verify(list, _capacity > _pinnedCount + 4,
                           "snapshots: ring too small");
}

void
Inspector::step()
{
    uint64_t pick = _rng.next() % 100;
    if (pick < 14)
        print();
    else if (pick < 24)
        readMem();
    else if (pick < 32)
        regs();
    else if (pick < 40)
        snapshots();
    else if (pick < 50)
        force();
    else if (pick < 60)
        forceMem();
    else if (pick < 65)
        snapshot();
    else if (pick < 68)
        restoreId();
    else if (pick < 70)
        restoreCycle();
    else if (pick < 82)
        stepOne();
    else if (pick < 90)
        breakRun();
    else
        trace();
}

void
Inspector::print()
{
    size_t choice = _rng.next() % (std::size(kRegs) + 1);
    std::string name =
        choice == std::size(kRegs) ? kMcycle : kRegs[choice].name;
    Exchange ex = _client->send("read", req("print", {{"name", name}}));
    if (ex.failed)
        return;
    uint64_t value = field(ex.reply, "value");
    if (name == kMcycle) {
        _client->verify(ex, value == _cycle % kMcycleMod,
                        "print: mcycle differs from the cycle");
    } else if (auto it = _regs.find(name); it != _regs.end()) {
        _client->verify(ex, value == it->second,
                        "print: differs from the forced value");
    }
}

void
Inspector::readMem()
{
    const MemTarget &mem = kMems[_rng.next() % std::size(kMems)];
    uint64_t addr = _rng.next() % mem.depth;
    // Half the reads revisit a word this client wrote.
    if (_rng.percent(50)) {
        for (const auto &[key, value] : _mem) {
            if (key.first == mem.name) {
                addr = key.second;
                break;
            }
        }
    }
    Exchange ex = _client->send(
        "read", req("x", {{"name", mem.name}, {"addr", addr}}));
    if (ex.failed)
        return;
    if (auto it = _mem.find({mem.name, addr}); it != _mem.end())
        _client->verify(ex, field(ex.reply, "value") == it->second,
                        "x: differs from the forcemem value");
}

void
Inspector::regs()
{
    std::string scope = kScopes[_rng.next() % std::size(kScopes)];
    Exchange ex = _client->send("read", req("regs", {{"prefix", scope}}));
    if (ex.failed)
        return;
    const Json *regs = ex.reply.find("regs");
    if (!_client->verify(ex, regs && regs->isObject(),
                         "regs: no register map"))
        return;
    _client->verify(ex,
                    field(*regs, (scope + "mcycle").c_str()) ==
                        _cycle % kMcycleMod,
                    "regs: mcycle differs from the cycle");
    for (const auto &[name, value] : _regs)
        if (name.compare(0, scope.size(), scope) == 0)
            _client->verify(ex, field(*regs, name.c_str()) == value,
                            "regs: differs from the forced value");
}

void
Inspector::snapshots()
{
    Exchange ex = _client->send("read", req("snapshots"));
    if (ex.failed)
        return;
    const Json *list = ex.reply.find("snapshots");
    if (!_client->verify(ex, list && list->isArray(),
                         "snapshots: no list"))
        return;
    size_t found = 0;
    for (const Json &entry : list->items()) {
        uint64_t id = std::strtoull(entry.find("id")->asString().c_str(),
                                    nullptr, 16);
        found += std::count(_pinned.begin(), _pinned.end(), id);
    }
    _client->verify(ex, found == _pinned.size(),
                    "snapshots: a pinned snapshot went missing");
}

void
Inspector::force()
{
    const RegTarget &reg = kRegs[_rng.next() % std::size(kRegs)];
    uint64_t value = _rng.next() & zoomie::maskForWidth(reg.width);
    Exchange ex = _client->send(
        "write", req("force", {{"name", reg.name}, {"value", value}}));
    _atPinned.reset();
    if (!ex.failed)
        _regs[reg.name] = value;
}

void
Inspector::forceMem()
{
    const MemTarget &mem = kMems[_rng.next() % std::size(kMems)];
    uint64_t addr = _rng.next() % mem.depth;
    uint64_t value = _rng.next() & zoomie::maskForWidth(mem.width);
    Exchange ex = _client->send(
        "write", req("forcemem", {{"name", mem.name},
                                  {"addr", addr},
                                  {"value", value}}));
    _atPinned.reset();
    if (!ex.failed)
        _mem[{mem.name, addr}] = value;
}

void
Inspector::snapshot()
{
    // A pinned snapshot of a state already pinned dedups onto it;
    // anything else takes a ring slot, so stay below capacity.
    if (!_atPinned && _pinnedCount + 3 >= _capacity) {
        restoreId();
        return;
    }
    Exchange ex = _client->send("write", req("snapshot"));
    if (ex.failed)
        return;
    uint64_t id = snapshotId(ex.reply);
    if (_atPinned) {
        _client->verify(ex, id == *_atPinned,
                        "snapshot: restored state got a new id");
    } else if (std::find(_pinned.begin(), _pinned.end(), id) ==
               _pinned.end()) {
        _pinned.push_back(id);
        ++_pinnedCount;
    }
    _atPinned = id;
}

void
Inspector::restoreId()
{
    if (_pinned.empty()) {
        restoreCycle();
        return;
    }
    uint64_t id = _pinned[_rng.next() % _pinned.size()];
    Exchange ex =
        _client->send("write", req("restore", {{"snapshot", id}}));
    forget();
    if (ex.failed)
        return;
    _client->verify(ex, snapshotId(ex.reply) == id,
                    "restore: restored another snapshot");
    _cycle = field(ex.reply, "cycle");
    _atPinned = id;
}

void
Inspector::restoreCycle()
{
    // Auto-snapshots taken while a breakpoint was armed replay into
    // that breakpoint, so travel only from pinned snapshots (taken
    // with the triggers clear) and only as far as the next
    // auto-snapshot: list the ring first.
    Exchange list = _client->send("read", req("snapshots"));
    if (list.failed)
        return;
    std::vector<std::pair<uint64_t, bool>> ring; // (cycle, pinned)
    for (const Json &entry : list.reply.find("snapshots")->items())
        ring.emplace_back(field(entry, "cycle"),
                          entry.find("pinned")->asBool());
    std::vector<std::pair<uint64_t, uint64_t>> spans; // (from, room)
    for (const auto &[from, pinned] : ring) {
        if (!pinned)
            continue;
        uint64_t room = 300;
        for (const auto &[cycle, other] : ring)
            if (!other && cycle > from)
                room = std::min(room, cycle - from - 1);
        spans.emplace_back(from, room);
    }
    if (!_client->verify(list, !spans.empty(),
                         "snapshots: no pinned snapshot"))
        return;
    const auto &[from, room] = spans[_rng.next() % spans.size()];
    uint64_t target = from + _rng.range(0, room);
    Exchange ex =
        _client->send("write", req("restore", {{"cycle", target}}));
    forget();
    if (ex.failed)
        return;
    _client->verify(ex, field(ex.reply, "cycle") == target,
                    "restore: landed on another cycle");
    _cycle = target;
}

void
Inspector::stepOne()
{
    Exchange ex = _client->send("stop", req("step", {{"n", 1}}));
    forget();
    if (ex.failed)
        return;
    _client->verify(ex, ex.event("dbg_stop") >= 0, "step: no dbg_stop");
    _client->verify(ex, field(ex.reply, "cycle") == _cycle + 1,
                    "step: advanced from " + std::to_string(_cycle) +
                        " to " +
                        std::to_string(field(ex.reply, "cycle")));
    _cycle = field(ex.reply, "cycle");
}

void
Inspector::breakRun()
{
    uint64_t ahead = _rng.range(16, 400);
    uint64_t value = (_cycle + ahead) % kMcycleMod;
    forget();
    Exchange brk = _client->send(
        "aux", req("break", {{"slot", 0}, {"value", value}}));
    if (brk.failed)
        return;
    Exchange resumed = _client->send("aux", req("resume"));
    if (resumed.failed)
        return;
    uint64_t n = ahead + 32;
    Exchange run = _client->send("stop", req("run", {{"n", n}}));
    if (run.failed)
        return;
    _client->verify(run, run.event("dbg_stop") >= 0, "run: no dbg_stop");
    _client->verify(run, field(run.reply, "cycles_run") == n,
                    "run: cycles_run differs from n");
    _client->verify(run, field(run.reply, "cycle") == _cycle + ahead,
                    "run: stopped on another cycle");
    _cycle = field(run.reply, "cycle");
    // A breakpoint left armed on the current value would hold the
    // next `step` in place.
    _client->send("aux", req("clear"));
}

void
Inspector::trace()
{
    constexpr uint64_t kSamples = 16;
    Exchange ex =
        _client->send("trace", req("trace", {{"n", kSamples}}));
    forget();
    if (ex.failed)
        return;
    // Reassemble the chunks in sequence order, then hold the
    // document against the trace_done checksum and counts.
    std::vector<std::pair<uint64_t, std::string>> chunks;
    const Json *done = nullptr;
    for (const Json &event : ex.events) {
        const std::string &type = event.find("type")->asString();
        if (type == "trace_chunk")
            chunks.emplace_back(field(event, "seq"),
                                event.find("data")->asString());
        else if (type == "trace_done")
            done = &event;
    }
    if (!_client->verify(ex, done != nullptr, "trace: no trace_done"))
        return;
    std::sort(chunks.begin(), chunks.end());
    std::string document;
    for (const auto &[seq, data] : chunks)
        document += data;
    char checksum[24];
    std::snprintf(checksum, sizeof(checksum), "0x%016llx",
                  (unsigned long long)zoomie::fnv1a64(document.data(),
                                                      document.size()));
    const Json *expected = done->find("checksum");
    _client->verify(ex,
                    expected && expected->isString() &&
                        expected->asString() == checksum,
                    "trace: checksum mismatch");
    _client->verify(ex,
                    field(*done, "bytes") == document.size() &&
                        field(*done, "chunks") == chunks.size(),
                    "trace: chunk or byte count mismatch");
    _client->verify(ex, field(*done, "samples") == kSamples,
                    "trace: sample count mismatch");
}

// ---- percentiles -------------------------------------------------------

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double pos = q * double(values.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

Json
summary(const std::vector<double> &values)
{
    Json out = Json::object();
    out.set("p50", quantile(values, 0.50));
    out.set("p95", quantile(values, 0.95));
    out.set("n", uint64_t(values.size()));
    return out;
}

} // namespace wirebench
