#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <utility>
#include <vector>

namespace flashsim
{

std::string
vstrprintf(const char *fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (len < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(len));
}

namespace
{

// Serialise whole messages (and post-mortem dumps): sweep-runner
// workers log concurrently.
std::mutex &
logMutex()
{
    static std::mutex mu;
    return mu;
}

thread_local std::function<Tick()> tickSource;
thread_local NodeId logNode = kInvalidNode;
thread_local std::vector<std::pair<int, std::function<void(std::ostream &)>>>
    postMortems;
thread_local int nextToken = 0;

std::string
contextPrefix()
{
    std::string ctx;
    if (tickSource)
        ctx += "t=" + std::to_string(tickSource());
    if (logNode != kInvalidNode) {
        if (!ctx.empty())
            ctx += " ";
        ctx += "node=" + std::to_string(logNode);
    }
    return ctx.empty() ? ctx : "[" + ctx + "] ";
}

void
emit(const char *prefix, const char *fmt, std::va_list args)
{
    std::string msg = vstrprintf(fmt, args);
    std::lock_guard<std::mutex> lock(logMutex());
    std::fprintf(stderr, "%s: %s%s\n", prefix, contextPrefix().c_str(),
                 msg.c_str());
}

[[noreturn]] void
die(const char *prefix, const char *fmt, std::va_list args)
{
    emit(prefix, fmt, args);
    if (!postMortems.empty()) {
        std::lock_guard<std::mutex> lock(logMutex());
        for (const auto &[token, fn] : postMortems)
            fn(std::cerr);
        std::cerr.flush();
    }
    std::fflush(stderr);
    std::abort();
}

} // namespace

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    die("panic", fmt, args);
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    die("fatal", fmt, args);
}

void
warn(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    emit("warn", fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    emit("info", fmt, args);
    va_end(args);
}

void
setLogTickSource(std::function<Tick()> fn)
{
    tickSource = std::move(fn);
}

void
setLogNode(NodeId node)
{
    logNode = node;
}

int
registerPostMortem(std::function<void(std::ostream &)> fn)
{
    int token = nextToken++;
    postMortems.emplace_back(token, std::move(fn));
    return token;
}

void
unregisterPostMortem(int token)
{
    for (auto it = postMortems.begin(); it != postMortems.end(); ++it) {
        if (it->first == token) {
            postMortems.erase(it);
            return;
        }
    }
}

} // namespace flashsim
