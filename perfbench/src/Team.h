//===- perfbench/src/Team.h - A fixed team of worker threads ----*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Threads created once and released together for each job, so a timed
/// cell pays a barrier wake-up instead of thread creation.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TEAM_H
#define PERFBENCH_TEAM_H

#include "Common.h"

#include <barrier>
#include <functional>
#include <thread>
#include <vector>

namespace perfbench {

class Team {
public:
  explicit Team(unsigned N) : Start(N + 1), Done(N + 1) {
    for (unsigned I = 0; I < N; ++I)
      Threads.emplace_back([this, I] { loop(I); });
  }
  ~Team() {
    Stopping = true;
    Start.arrive_and_wait();
    for (std::thread &T : Threads)
      T.join();
  }
  Team(const Team &) = delete;
  Team &operator=(const Team &) = delete;

  /// Runs \p Fn(member index) on every member at once; returns the wall
  /// seconds from release until the last member finished.
  double run(std::function<void(unsigned)> Fn) {
    Job = std::move(Fn);
    Clock::time_point T0 = Clock::now();
    Start.arrive_and_wait();
    Done.arrive_and_wait();
    return secondsSince(T0);
  }

private:
  void loop(unsigned I) {
    for (;;) {
      Start.arrive_and_wait();
      if (Stopping)
        return;
      Job(I);
      Done.arrive_and_wait();
    }
  }

  std::barrier<> Start;
  std::barrier<> Done;
  std::function<void(unsigned)> Job;
  bool Stopping = false; ///< Published to the members by Start.
  std::vector<std::thread> Threads;
};

} // namespace perfbench

#endif // PERFBENCH_TEAM_H
