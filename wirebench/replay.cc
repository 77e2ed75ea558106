/**
 * @file
 * The `replay` subcommand: the traced run behind the per-layer
 * metrics. It replays the seeded inputs of all three workloads
 * in-process and times the calls into each layer's public functions
 * with spans recorded here, in the benchmark; nothing inside the
 * program is instrumented.
 *
 *  - bringup: every upload runs through the layers the `open_source`
 *    path uses (verilog, lint, sva, core instrument, synth techmap,
 *    toolchain place/bitgen/timing, fpga configure, debugger attach)
 *    and then through Server::handleLine; the replayed bitstream and
 *    cell counts must equal the Platform::create result of the
 *    session the server brought up.
 *  - simulate: `run` through handleLine, then each engine's
 *    Backend::run on its own (host ns per cycle), and jit compile.
 *  - inspect: the seeded command mix through handleLine (plus JSON
 *    parse/encode), then the debugger-plane calls one by one.
 *
 * Spans (name, start, end, parent, request) are held in memory and
 * written as one JSON file at the end.
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "core/backend.hh"
#include "core/debugger.hh"
#include "core/instrument.hh"
#include "core/snapshot.hh"
#include "fpga/device.hh"
#include "jit/jitsim.hh"
#include "jtag/jtag.hh"
#include "lint/cache.hh"
#include "lint/lint.hh"
#include "rdp/server.hh"
#include "sim/trace.hh"
#include "sva/compiler.hh"
#include "synth/techmap.hh"
#include "toolchain/artifact_store.hh"
#include "toolchain/bitgen.hh"
#include "toolchain/flows.hh"
#include "toolchain/placer.hh"
#include "toolchain/timing.hh"
#include "verilog/verilog.hh"
#include "wirebench.hh"

namespace wirebench {

namespace {

namespace core = zoomie::core;
namespace fpga = zoomie::fpga;
namespace rdp = zoomie::rdp;
namespace rtl = zoomie::rtl;
namespace synth = zoomie::synth;
namespace toolchain = zoomie::toolchain;

// ---- spans ------------------------------------------------------------

/** In-memory span recorder; disabled, it records nothing. */
class Tracer
{
  public:
    struct Record
    {
        std::string name;
        double startUs = 0;
        double endUs = 0;
        int parent = -1;
        uint64_t request = 0;
    };

    explicit Tracer(bool enabled = true)
        : _enabled(enabled), _origin(Clock::now())
    {
    }

    /** Request id stamped on spans opened from now on. */
    uint64_t request = 0;

    int
    open(const std::string &name)
    {
        if (!_enabled)
            return -1;
        int index = int(_records.size());
        _records.push_back({name, now(), 0,
                            _stack.empty() ? -1 : _stack.back(),
                            request});
        _stack.push_back(index);
        return index;
    }

    double
    close(int index)
    {
        Record &record = _records[size_t(index)];
        record.endUs = now();
        _stack.pop_back();
        return record.endUs - record.startUs;
    }

    /** Per span name: each span's duration minus its children's. */
    std::map<std::string, std::vector<double>>
    selfTimes() const
    {
        std::vector<double> children(_records.size(), 0);
        for (const Record &r : _records)
            if (r.parent >= 0)
                children[size_t(r.parent)] += r.endUs - r.startUs;
        std::map<std::string, std::vector<double>> out;
        for (size_t i = 0; i < _records.size(); ++i)
            out[_records[i].name].push_back(_records[i].endUs -
                                            _records[i].startUs -
                                            children[i]);
        return out;
    }

    /** Per span name: each span's whole duration. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const Record &r : _records)
            if (r.name == name)
                out.push_back(r.endUs - r.startUs);
        return out;
    }

    bool
    write(const std::string &path) const
    {
        Json spans = Json::array();
        for (const Record &r : _records) {
            Json span = Json::object();
            span.set("name", r.name);
            span.set("start_us", r.startUs);
            span.set("end_us", r.endUs);
            span.set("parent", int64_t(r.parent));
            span.set("request", r.request);
            spans.push(std::move(span));
        }
        Json doc = Json::object();
        doc.set("spans", std::move(spans));
        std::ofstream out(path);
        out << doc.encode() << "\n";
        return bool(out);
    }

  private:
    double
    now() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         _origin)
            .count();
    }

    bool _enabled;
    Clock::time_point _origin;
    std::vector<Record> _records;
    std::vector<int> _stack;
};

/** A scoped span; stop() ends it early and returns its µs. */
class Span
{
  public:
    Span(Tracer &tracer, const std::string &name)
        : _tracer(tracer), _index(tracer.open(name))
    {
    }
    ~Span() { stop(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    double
    stop()
    {
        if (_index >= 0) {
            _us = _tracer.close(_index);
            _index = -1;
        }
        return _us;
    }

  private:
    Tracer &_tracer;
    int _index;
    double _us = 0;
};

/** Uploads replayed (interleaved over the four clients' streams). */
constexpr size_t kUploads = 24;

/** Inspect operations replayed through handleLine. */
constexpr size_t kInspectOps = 400;

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

double
usSince(Clock::time_point start)
{
    return msBetween(start, Clock::now()) * 1000;
}

/** What the replay found; becomes the subcommand's JSON line. */
struct Results
{
    std::map<std::string, double> metrics;
    Json counts = Json::object();
    std::vector<std::string> errors;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    absorb(const Log &log)
    {
        attempted += log.attempted;
        failed += log.failed;
        errors.insert(errors.end(), log.errors.begin(), log.errors.end());
    }
};

// ---- the in-process channel --------------------------------------------

/**
 * Server::handleLine as a Channel. It is also the connection's event
 * sink, so a streamed `trace` delivers its chunks here exactly as
 * the TCP outbox would. Optionally times JSON parse and encode.
 */
class InProcChannel : public Channel, public rdp::EventSink
{
  public:
    explicit InProcChannel(rdp::Server &server) : _server(server)
    {
        _conn.sink = this;
    }

    InProcChannel(const InProcChannel &) = delete;
    InProcChannel &operator=(const InProcChannel &) = delete;

    bool timeJson = false;
    std::vector<double> parseUs;
    std::vector<double> encodeUs;

    bool
    emit(const Json &event) override
    {
        _streamed.push_back(event);
        return true;
    }

    void emitControl(const Json &event) override
    {
        _streamed.push_back(event);
    }

    Exchange
    call(const Json &request) override
    {
        std::string line = request.encode();
        if (timeJson) {
            Clock::time_point start = Clock::now();
            std::optional<Json> parsed = Json::parse(line);
            parseUs.push_back(usSince(start));
        }
        Exchange ex;
        bool quit = false;
        ex.sentAt = Clock::now();
        std::vector<std::string> lines =
            _server.handleLine(line, _conn, quit);
        ex.replyAt = Clock::now();
        for (Json &event : _streamed) {
            ex.events.push_back(std::move(event));
            ex.eventAt.push_back(ex.replyAt);
        }
        _streamed.clear();
        if (lines.empty()) {
            ex.dropped = true;
            return ex;
        }
        for (size_t i = 0; i < lines.size(); ++i) {
            std::optional<Json> message = Json::parse(lines[i]);
            if (!message) {
                ex.dropped = true;
                return ex;
            }
            if (i + 1 < lines.size()) {
                ex.events.push_back(std::move(*message));
                ex.eventAt.push_back(ex.replyAt);
                continue;
            }
            if (timeJson) {
                Clock::time_point start = Clock::now();
                std::string encoded = message->encode();
                encodeUs.push_back(usSince(start));
            }
            ex.reply = std::move(*message);
        }
        return ex;
    }

  private:
    rdp::Server &_server;
    rdp::ConnState _conn;
    std::vector<Json> _streamed;
};

// ---- bringup layers ----------------------------------------------------

/** The device session.cc picks for an uploaded design. */
fpga::DeviceSpec
uploadSpec(const rtl::Design &design)
{
    fpga::DeviceSpec spec = fpga::makeTestDevice();
    if (design.nodes.size() > 300 || !design.mems.empty()) {
        spec.clbCols = 32;
        spec.clbRows = 64;
        spec.bramCols = 4;
    }
    return spec;
}

/**
 * The `open_source` bring-up, one public layer call at a time, with
 * caches of its own that see the same upload sequence as the
 * server's.
 */
class LayerReplay
{
  public:
    struct Outcome
    {
        size_t bitstreamWords = 0;
        size_t cells = 0;
        double layerUs = 0; ///< every layer but the standalone sva
    };

    uint64_t lintHits = 0;
    uint64_t lintMisses = 0;
    uint64_t artifactHits = 0;
    uint64_t artifactMisses = 0;

    Outcome
    run(Tracer &tracer, const Design &d)
    {
        Clock::time_point start = Clock::now();
        zoomie::verilog::CompileOptions options;
        options.file = "<upload>";
        zoomie::verilog::CompileResult compiled;
        {
            Span span(tracer, "verilog.compile");
            compiled = zoomie::verilog::compile(d.text, options);
        }
        if (!compiled.ok || !compiled.design)
            throw std::runtime_error("replay: an upload does not compile");
        const rtl::Design &design = *compiled.design;
        {
            Span span(tracer, "lint.run");
            zoomie::lint::Linter linter;
            zoomie::lint::RunMetrics metrics;
            linter.run(design, zoomie::lint::Options{}, &_lintCache,
                       &metrics);
            lintHits += metrics.cacheHits;
            lintMisses += metrics.cacheMisses;
        }
        // instrument() synthesizes the monitors again internally;
        // this standalone compile is the sva layer's own figure.
        Clock::time_point svaStart = Clock::now();
        for (const std::string &text : d.assertions) {
            Span span(tracer, "sva.compile");
            zoomie::sva::compileAssertion(text);
        }
        double svaUs = usSince(svaStart);

        core::InstrumentOptions instrument;
        instrument.mutPrefix = "mut/";
        instrument.watchSignals = {kCounter};
        instrument.assertions = d.assertions;
        core::InstrumentResult meta;
        {
            Span span(tracer, "core.instrument");
            meta = core::instrument(design, instrument);
        }

        fpga::DeviceSpec spec = uploadSpec(design);
        synth::MappedNetlist netlist;
        fpga::Placement placement;
        std::vector<uint32_t> bitstream;
        {
            // VendorTool::compile, phase by phase.
            Span span(tracer, "toolchain.compile");
            std::string key = toolchain::ArtifactStore::partitionKey(
                meta.design, synth::MapOptions{});
            synth::MapWork work;
            if (_artifacts.fetch(key, meta.design, netlist, work)) {
                ++artifactHits;
            } else {
                ++artifactMisses;
                {
                    Span map(tracer, "synth.techmap");
                    netlist = synth::techMap(meta.design, {}, &work);
                }
                _artifacts.store(key, netlist, work, meta.design);
            }
            toolchain::PlaceWork placed;
            {
                Span phase(tracer, "toolchain.place");
                placement =
                    toolchain::place(spec, netlist, nullptr, &placed);
            }
            {
                Span phase(tracer, "toolchain.bitgen");
                bitstream =
                    toolchain::fullBitstream(spec, netlist, placement);
            }
            {
                Span phase(tracer, "toolchain.timing");
                toolchain::analyzeTiming(spec, netlist, placement,
                                         placed.peakUtilization);
            }
        }

        std::unique_ptr<fpga::Device> device;
        std::unique_ptr<zoomie::jtag::JtagHost> host;
        {
            // Platform::loadAndAttach.
            Span span(tracer, "fpga.configure");
            device = std::make_unique<fpga::Device>(spec);
            host = std::make_unique<zoomie::jtag::JtagHost>(*device);
            device->attach(netlist, placement);
            host->send(bitstream);
            device->bindClockGate(meta.gatedClock, "zoomie/clk_en");
        }
        {
            Span span(tracer, "core.debugger_attach");
            core::Debugger debugger(*device, *host, meta.design, netlist,
                                    placement, meta);
        }

        Outcome out;
        out.bitstreamWords = bitstream.size();
        out.cells = netlist.cells.size();
        out.layerUs = usSince(start) - svaUs;
        return out;
    }

  private:
    zoomie::lint::AnalysisCache _lintCache;
    toolchain::ArtifactStore _artifacts;
};

double
ratio(uint64_t hits, uint64_t misses)
{
    return hits + misses == 0 ? 0.0 : double(hits) / double(hits + misses);
}

void
replayBringup(const std::vector<Upload> &uploads, Tracer &tracer,
              Results &res)
{
    rdp::Server server;
    InProcChannel channel(server);
    Log log;
    Client client(channel, log);
    hello(client);
    LayerReplay layers;
    std::vector<double> handleUs, selfUs, sourceBytes, words, cells,
        modeled, jtagSent;
    Json perUpload = Json::array();
    for (size_t i = 0; i < uploads.size(); ++i) {
        const Upload &upload = uploads[i];
        tracer.request = i + 1;
        sourceBytes.push_back(double(upload.design->text.size()));
        // Whichever of the two runs second finds the CPU caches
        // warm, so alternate the order between uploads.
        bool layersFirst = i % 2 == 0;
        LayerReplay::Outcome layer;
        if (layersFirst)
            layer = layers.run(tracer, *upload.design);
        bringupRound(client, upload, [&](uint64_t id,
                                         const Exchange &opened) {
            if (!layersFirst)
                layer = layers.run(tracer, *upload.design);
            std::shared_ptr<rdp::Session> session =
                server.sessions().find(id);
            auto *fabric = session ? dynamic_cast<core::FabricBackend *>(
                                         &session->backend())
                                   : nullptr;
            if (!fabric) {
                res.errors.push_back("bringup: no fabric session");
                return;
            }
            std::lock_guard<std::mutex> lock(session->mutex());
            core::Platform &platform = fabric->platform();
            const toolchain::CompileResult &compiled =
                platform.compileResult();
            if (compiled.bitstream.size() != layer.bitstreamWords ||
                compiled.netlist.cells.size() != layer.cells) {
                res.errors.push_back(
                    "bringup: replayed layers differ from "
                    "Platform::create on upload " + std::to_string(i));
            }
            Json counts = Json::array();
            counts.push(uint64_t(compiled.bitstream.size()));
            counts.push(uint64_t(compiled.netlist.cells.size()));
            counts.push(compiled.time.total());
            counts.push(platform.jtag().wordsSent());
            perUpload.push(std::move(counts));
            words.push_back(double(compiled.bitstream.size()));
            cells.push_back(double(compiled.netlist.cells.size()));
            modeled.push_back(compiled.time.total());
            jtagSent.push_back(double(platform.jtag().wordsSent()));

            // Bring-up ends with a pinned genesis snapshot.
            double captureUs = 0;
            {
                Span span(tracer, "core.snapshot_capture");
                core::SnapshotStore store(session->backend());
                store.capture(/*pinned=*/true);
                captureUs = span.stop();
            }
            double handled = opened.ms() * 1000;
            handleUs.push_back(handled);
            selfUs.push_back(handled - layer.layerUs - captureUs);
        });
    }
    res.absorb(log);
    auto &m = res.metrics;
    m["rdp.handle_line_us.open_source"] = median(handleUs);
    m["rdp.open_source_self_us"] = median(selfUs);
    m["verilog.source_bytes"] = median(sourceBytes);
    m["lint.cache_hit_ratio"] = ratio(layers.lintHits, layers.lintMisses);
    m["toolchain.artifact_hit_ratio"] =
        ratio(layers.artifactHits, layers.artifactMisses);
    m["synth.cells"] = median(cells);
    m["bitstream.words"] = median(words);
    m["toolchain.modeled_compile_s"] = median(modeled);
    m["jtag.words_sent_per_open"] = median(jtagSent);
    res.counts.set("uploads", std::move(perUpload));
}

/** Host time of the three engines on serv_soc. */
void
replaySimulate(Tracer &tracer, Results &res)
{
    constexpr uint64_t kEngineCycles = 8192;
    rdp::Server server;
    InProcChannel channel(server);
    Log log;
    Client client(channel, log);
    hello(client);
    const std::pair<const char *, const char *> kEngines[] = {
        {"fabric", "fpga"}, {"sim", "sim"}, {"jit", "jit"}};
    for (const auto &[backend, layer] : kEngines) {
        tracer.request = 0;
        uint64_t id = openServSoc(client, backend);
        std::shared_ptr<rdp::Session> session =
            server.sessions().find(id);
        if (!session) {
            res.errors.push_back(std::string("simulate: cannot open ") +
                                 backend);
            continue;
        }
        for (int k = 0; k < 3; ++k)
            simulateRun(client, "run", id);

        std::lock_guard<std::mutex> lock(session->mutex());
        core::Backend &engine = session->backend();
        std::vector<double> nsPerCycle;
        Clock::time_point start = Clock::now();
        while (nsPerCycle.size() < 3 ||
               (msBetween(start, Clock::now()) < 300 &&
                nsPerCycle.size() < 64)) {
            Span span(tracer, std::string(layer) + ".run");
            Clock::time_point t0 = Clock::now();
            engine.run(kEngineCycles);
            nsPerCycle.push_back(msBetween(t0, Clock::now()) * 1e6 /
                                 kEngineCycles);
        }
        res.metrics[std::string(layer) + ".ns_per_cycle"] =
            median(nsPerCycle);
        if (std::string(backend) == "jit") {
            const rtl::Design &design = engine.instrumented().design;
            for (int k = 0; k < 3; ++k) {
                Span span(tracer, "jit.compile");
                zoomie::jit::JitSim compiled(design);
            }
        }
    }
    res.absorb(log);
    res.metrics["rdp.handle_line_us.run"] = median(log.ms["run"]) * 1000;
}

/** The inspect mix through handleLine, then the debugger plane. */
void
replayInspect(uint64_t seed, Tracer &tracer, Results &res)
{
    constexpr int kPlaneCalls = 40;
    rdp::Server server;
    InProcChannel channel(server);
    channel.timeJson = true;
    Log log;
    Client client(channel, log);
    hello(client);
    uint64_t id = openServSoc(client, "fabric");
    Inspector inspector(client, id,
                        subSeed(seed, Stream::Inspect, 0));
    std::shared_ptr<rdp::Session> session = server.sessions().find(id);
    if (!session || !inspector.setup()) {
        res.absorb(log);
        res.errors.push_back("inspect: cannot set up the session");
        return;
    }
    tracer.request = 0;
    for (size_t i = 0; i < kInspectOps; ++i)
        inspector.step();
    res.absorb(log);
    for (const char *cls : {"read", "write", "stop", "trace"})
        res.metrics[std::string("rdp.handle_line_us.") + cls] =
            median(log.ms[cls]) * 1000;
    res.metrics["rdp.json_parse_us"] = median(channel.parseUs);
    res.metrics["rdp.json_encode_us"] = median(channel.encodeUs);

    std::lock_guard<std::mutex> lock(session->mutex());
    core::Backend &backend = session->backend();
    core::SnapshotStore &store = session->snapshots();
    std::vector<core::SnapshotId> ids;
    for (const core::SnapshotInfo &info : store.list())
        ids.push_back(info.id);
    const char *const regs[] = {"cluster0/core0/acc",
                                "cluster0/core1/acc",
                                "cluster0/core0/rs1"};
    const char *const scopes[] = {"cluster0/core0/", "cluster0/core1/"};
    zoomie::sim::Trace trace;
    trace.addSignal(kMcycle,
                    [&backend] { return backend.readRegister(kMcycle); });
    Rng rng(subSeed(seed, Stream::Plane, 0));
    for (int i = 0; i < kPlaneCalls; ++i) {
        tracer.request = i + 1;
        const char *reg = regs[rng.next() % std::size(regs)];
        {
            Span span(tracer, "core.read_register");
            backend.readRegister(reg);
        }
        {
            Span span(tracer, "core.read_all_registers");
            backend.readAllRegisters(scopes[rng.next() % 2]);
        }
        {
            Span span(tracer, "core.read_mem");
            backend.readMemWord("cluster0/mem/bank0",
                                uint32_t(rng.next() % 1024));
        }
        {
            Span span(tracer, "core.force");
            backend.forceRegister(reg, rng.next() & 0xffffffffULL);
        }
        {
            Span span(tracer, "core.snapshot_restore");
            store.restore(ids[rng.next() % ids.size()]);
        }
        {
            // The wire `step 1`: arm the counter, tick until paused.
            Span span(tracer, "core.step");
            backend.stepCycles(1);
            backend.run(5);
        }
        {
            Span span(tracer, "core.trace_sample");
            trace.sample();
        }
    }
    auto *fabric = dynamic_cast<core::FabricBackend *>(&backend);
    zoomie::jtag::JtagHost &host = fabric->platform().jtag();
    uint64_t before = host.wordsRead();
    backend.readRegister(kMcycle);
    res.metrics["jtag.words_read_per_read"] =
        double(host.wordsRead() - before);
    res.counts.set("jtag_words_read_per_read", host.wordsRead() - before);
}

/** Wall time of the bring-up layer replay, spans on or off. */
double
layerPassMs(const std::vector<Upload> &uploads, bool spans)
{
    Tracer tracer(spans);
    LayerReplay layers;
    Clock::time_point start = Clock::now();
    for (const Upload &upload : uploads)
        layers.run(tracer, *upload.design);
    return msBetween(start, Clock::now());
}

} // namespace

int
runReplay(uint64_t seed, const std::string &spansPath)
{
    std::vector<std::vector<Design>> pools;
    std::vector<UploadStream> streams;
    for (unsigned c = 0; c < kClients; ++c)
        pools.push_back(designPool(seed, c));
    for (unsigned c = 0; c < kClients; ++c)
        streams.emplace_back(pools[c], seed, c);
    std::vector<Upload> uploads;
    for (size_t i = 0; i < kUploads; ++i)
        uploads.push_back(streams[i % kClients].next());

    Tracer tracer;
    Results res;
    try {
        replayBringup(uploads, tracer, res);
        replaySimulate(tracer, res);
        replayInspect(seed, tracer, res);
        // Alternate the order so warm-up does not favour one side.
        double off = layerPassMs(uploads, false);
        double on = layerPassMs(uploads, true);
        off += layerPassMs(uploads, false);
        on += layerPassMs(uploads, true);
        res.metrics["trace.overhead_frac"] = (on - off) / off;
    } catch (const std::exception &e) {
        res.errors.push_back(e.what());
    }

    std::map<std::string, std::vector<double>> self = tracer.selfTimes();
    for (const char *layer :
         {"verilog.compile", "lint.run", "sva.compile", "core.instrument",
          "synth.techmap", "toolchain.place", "toolchain.timing",
          "toolchain.bitgen", "fpga.configure", "core.debugger_attach",
          "core.snapshot_capture", "jit.compile", "core.read_register",
          "core.read_all_registers", "core.read_mem", "core.force",
          "core.snapshot_restore", "core.step", "core.trace_sample"})
        res.metrics[std::string(layer) + "_us"] = median(self[layer]);
    res.metrics["toolchain.compile_us"] =
        median(tracer.durations("toolchain.compile"));
    if (!spansPath.empty() && !tracer.write(spansPath))
        res.errors.push_back("cannot write " + spansPath);

    Json out = Json::object();
    out.set("correct", res.errors.empty() && res.failed == 0);
    out.set("attempted", res.attempted);
    out.set("failed", res.failed);
    Json errors = Json::array();
    for (const std::string &error : res.errors)
        errors.push(error);
    out.set("errors", std::move(errors));
    Json metrics = Json::object();
    for (const auto &[name, value] : res.metrics)
        metrics.set(name, value);
    out.set("metrics", std::move(metrics));
    out.set("counts", std::move(res.counts));
    std::printf("%s\n", out.encode().c_str());
    return 0;
}

} // namespace wirebench
