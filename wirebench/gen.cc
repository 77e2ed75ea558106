/**
 * @file
 * Seeded Verilog upload generator for the bringup workload, and the
 * `selfcheck` subcommand that compiles and lints every text of a
 * seed in-process before any timing starts.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "lint/lint.hh"
#include "verilog/verilog.hh"
#include "wirebench.hh"

namespace wirebench {

uint64_t
subSeed(uint64_t seed, Stream stream, uint64_t client)
{
    Rng rng(seed ^ (uint64_t(stream) << 56) ^ (client << 48));
    rng.next();
    return rng.next();
}

namespace {

std::string
literal16(uint64_t value)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "16'h%04llx",
                  (unsigned long long)(value & 0xffff));
    return buf;
}

/**
 * A 16-bit counter `cnt` feeding a chain of @p regs 16-bit
 * registers, each folding its predecessor in with add or xor, and
 * optionally a 16x16 memory written from the chain's tail.
 */
Design
render(Rng &rng, unsigned client, size_t index, unsigned regs,
       bool memory)
{
    Design d;
    d.regs = regs;
    d.memory = memory;
    std::string &t = d.text;
    t += "// wirebench upload: " + std::to_string(regs) +
         " chained registers" + (memory ? ", 16x16 memory" : "") +
         "\n";
    t += "module up_c" + std::to_string(client) + "_" +
         std::to_string(index) + "(input clk, output [15:0] q);\n";
    t += "  reg [15:0] cnt;\n";
    for (unsigned i = 0; i < regs; ++i)
        t += "  reg [15:0] r" + std::to_string(i) + ";\n";
    if (memory)
        t += "  reg [15:0] mem [0:15];\n  reg [15:0] rd;\n";
    t += "  always @(posedge clk) begin\n";
    t += "    cnt <= cnt + 16'h0001;\n";
    for (unsigned i = 0; i < regs; ++i) {
        std::string self = "r" + std::to_string(i);
        std::string prev = i == 0 ? "cnt" : "r" + std::to_string(i - 1);
        bool add = rng.next() & 1;
        t += "    " + self + " <= " + self + (add ? " + (" : " ^ (") +
             prev + (add ? " ^ " : " + ") + literal16(rng.next()) +
             ");\n";
    }
    std::string tail = "r" + std::to_string(regs - 1);
    if (memory) {
        t += "    mem[" + tail + "[3:0]] <= " + tail + ";\n";
        t += "    rd <= mem[cnt[3:0]];\n";
    }
    t += "  end\n";
    t += "  assign q = " + tail + (memory ? " ^ rd" : "") + ";\n";
    t += "endmodule\n";
    return d;
}

} // namespace

std::vector<Design>
designPool(uint64_t seed, unsigned client)
{
    Rng rng(subSeed(seed, Stream::Pool, client));
    std::vector<Design> pool;
    pool.reserve(kPoolSize);
    // Every block of ten holds six small, three memory and one large
    // design in seeded order, so each seed sends the same mix.
    enum Kind { Small, Memory, Large };
    std::vector<Kind> block = {Small, Small,  Small,  Small,  Small,
                               Small, Memory, Memory, Memory, Large};
    for (size_t i = 0; i < kPoolSize; ++i) {
        if (i % block.size() == 0) {
            for (size_t k = block.size() - 1; k > 0; --k)
                std::swap(block[k], block[rng.next() % (k + 1)]);
        }
        Design d;
        switch (block[i % block.size()]) {
          case Memory:
            // Any memory moves the upload to the 32x64 device.
            d = render(rng, client, i, unsigned(rng.range(2, 24)), true);
            break;
          case Large:
            d = render(rng, client, i, unsigned(rng.range(84, 110)),
                       false);
            d.large = true;
            break;
          case Small:
            d = render(rng, client, i, unsigned(rng.range(2, 14)), false);
            break;
        }
        // Never reached before the breakpoint (break values < 256).
        if (i % 4 == 0)
            d.assertions.push_back("assert property (" +
                                   std::string(kCounter) +
                                   " != 65535);");
        pool.push_back(std::move(d));
    }
    return pool;
}

UploadStream::UploadStream(const std::vector<Design> &pool,
                           uint64_t seed, unsigned client)
    : _pool(&pool), _rng(subSeed(seed, Stream::Uploads, client))
{
}

Upload
UploadStream::next()
{
    Upload u;
    size_t index;
    if (++_uploads % 4 == 0) {
        // Every fourth upload re-sends an earlier text.
        index = _rng.next() % _sent;
        u.repeat = true;
    } else if (_sent < _pool->size()) {
        index = _sent++;
    } else {
        // Pool exhausted: every text has been sent once already.
        index = _rng.next() % _pool->size();
        u.repeat = true;
    }
    u.design = &(*_pool)[index];
    u.breakValue = _rng.range(16, 240);
    u.runCycles = u.breakValue + 64;
    return u;
}

int
runSelfcheck(uint64_t seed)
{
    zoomie::lint::Linter linter;
    size_t bad = 0, small = 0, large = 0, memory = 0;
    size_t minLarge = SIZE_MAX, maxSmall = 0;
    for (unsigned c = 0; c < kClients; ++c) {
        std::vector<Design> pool = designPool(seed, c);
        for (size_t i = 0; i < pool.size(); ++i) {
            const Design &d = pool[i];
            zoomie::verilog::CompileOptions options;
            options.file = "<upload>";
            zoomie::verilog::CompileResult result =
                zoomie::verilog::compile(d.text, options);
            std::string why;
            if (!result.ok || !result.design) {
                why = "does not compile:\n" + result.renderDiags();
            } else {
                const zoomie::rtl::Design &design = *result.design;
                size_t nodes = design.nodes.size();
                if (design.findReg(kCounter) < 0)
                    why = std::string("has no ") + kCounter;
                else if (d.memory != !design.mems.empty())
                    why = "memory mismatch";
                else if (!d.memory && d.large && nodes <= 300)
                    why = "large design on the small device (" +
                          std::to_string(nodes) + " nodes)";
                else if (!d.memory && !d.large && nodes > kSmallMaxNodes)
                    why = "small design in the abort band (" +
                          std::to_string(nodes) + " nodes)";
                else if (linter.run(design).errors() > 0)
                    why = "fails the lint gate";
                if (d.memory)
                    ++memory;
                else if (d.large)
                    ++large, minLarge = std::min(minLarge, nodes);
                else
                    ++small, maxSmall = std::max(maxSmall, nodes);
            }
            if (!why.empty()) {
                ++bad;
                std::fprintf(stderr,
                             "wirebench: seed %llu client %u upload %zu "
                             "%s\n",
                             (unsigned long long)seed, c, i,
                             why.c_str());
            }
        }
    }
    std::fprintf(stderr,
                 "wirebench: selfcheck seed %llu: %zu small (<= %zu "
                 "nodes), %zu large (>= %zu nodes), %zu with memory, "
                 "%zu bad\n",
                 (unsigned long long)seed, small, maxSmall, large,
                 minLarge, memory, bad);
    return bad == 0 ? 0 : 1;
}

} // namespace wirebench
