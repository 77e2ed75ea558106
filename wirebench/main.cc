/**
 * @file
 * wirebench: the driver behind wirebench/run.py.
 *
 *   wirebench info                      build type and compiler (JSON)
 *   wirebench selfcheck --seed N        compile + lint every upload
 *   wirebench client --port P --seed N  drive a running zoomie_server
 *       [--bringup-s S] [--simulate-s S] [--inspect-s S] [--setup-only]
 *   wirebench replay --seed N [--spans FILE]   traced in-process replay
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "wirebench.hh"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: wirebench info\n"
                 "       wirebench selfcheck --seed N\n"
                 "       wirebench client --port P --seed N "
                 "[--bringup-s S] [--simulate-s S] [--inspect-s S] "
                 "[--setup-only]\n"
                 "       wirebench replay --seed N [--spans FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    wirebench::ClientOptions client;
    std::string spans;
    uint64_t seed = 1;
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--setup-only") {
            client.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        const char *value = argv[++i];
        if (flag == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--port")
            client.port = uint16_t(std::strtoul(value, nullptr, 10));
        else if (flag == "--bringup-s")
            client.bringupSeconds = std::strtod(value, nullptr);
        else if (flag == "--simulate-s")
            client.simulateSeconds = std::strtod(value, nullptr);
        else if (flag == "--inspect-s")
            client.inspectSeconds = std::strtod(value, nullptr);
        else if (flag == "--spans")
            spans = value;
        else
            return usage();
    }
    client.seed = seed;

    if (cmd == "info") {
        std::printf("{\"build_type\":\"%s\",\"compiler\":\"%s\"}\n",
                    WIREBENCH_BUILD_TYPE, WIREBENCH_COMPILER);
        return 0;
    }
    if (cmd == "selfcheck")
        return wirebench::runSelfcheck(seed);
    if (cmd == "client")
        return client.port == 0 ? usage() : wirebench::runClient(client);
    if (cmd == "replay")
        return wirebench::runReplay(seed, spans);
    return usage();
}
