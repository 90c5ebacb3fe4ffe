/**
 * @file
 * Run independent jobs on concurrent host threads.
 *
 * vidi_serve's default session stage (worker_procs = 0) runs several
 * tenants' record and replay jobs at once in its own worker threads,
 * each on its own Simulator. Runs must therefore share no mutable
 * state: N copies of one job run concurrently must each produce what
 * the job produces alone. The concurrency tests use onThreads() to
 * start the copies and compare every result with a sequential run.
 */

#pragma once

#include <exception>
#include <thread>
#include <vector>

namespace vidi {

/**
 * Call fn(i) for every i in [0, threads), each on its own host thread,
 * all started before any is joined. Returns the results in index
 * order. An exception thrown by a call is rethrown here, after every
 * thread has been joined.
 */
template <typename Result, typename Fn>
std::vector<Result>
onThreads(unsigned threads, Fn fn)
{
    std::vector<Result> results(threads);
    std::vector<std::exception_ptr> errors(threads);
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        pool.emplace_back([&, i] {
            try {
                results[i] = fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    return results;
}

} // namespace vidi
