//===- perfbench/src/ServiceWorkload.cpp - The service workload -----------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// A closed loop: workerThreads() clients, each holding one tenant of a
/// service::Supervisor, each sending its next request only when the
/// previous one returned (embedders call the runtime synchronously).
/// The governor is off, so the work per request never depends on how
/// fast the machine checks. A round runs every client's committed
/// request list once per variant, with each client's shard switched to
/// that variant's check policy; the variants run in a seed-rotated
/// order.
///
//===----------------------------------------------------------------------===//

#include "Team.h"
#include "Trace.h"
#include "Workloads.h"

#include "core/Reflect.h"
#include "service/Supervisor.h"

#include <algorithm>
#include <array>
#include <thread>

using namespace perfbench;
using namespace effective;
using namespace effective::service;

namespace {

/// A typed record for the struct-sized allocations.
struct Record {
  long Key;
  int Tag;
  double Weight;
  long Links[4];
};

} // namespace

EFFECTIVE_REFLECT(Record, Key, Tag, Weight, Links);

namespace {

constexpr CheckPolicy Policies[] = {CheckPolicy::Off, CheckPolicy::TypeOnly,
                                    CheckPolicy::BoundsOnly,
                                    CheckPolicy::Full};
constexpr unsigned NumVariants = 4, None = 0, Full = 3;

/// Committed request mix. A client sends RequestsPerPhase requests per
/// variant per round; OutOfBoundsEvery / ChurnEvery / BulkEvery give the
/// expected spacing of the seeded out-of-bounds, tenant-churn and bulk
/// (more than one 16-block magazine of one class) requests.
constexpr unsigned RequestsPerPhase = 6000;
constexpr unsigned OutOfBoundsEvery = 64;
constexpr unsigned ChurnEvery = 256;
constexpr unsigned BulkEvery = 16;
/// Spans are kept for every SpanEvery-th request of a traced phase.
constexpr unsigned SpanEvery = 8;

enum ElemKind : uint8_t { Int, Long, Double, Rec, NumKinds };
constexpr size_t ElemSize[NumKinds] = {sizeof(int), sizeof(long),
                                       sizeof(double), sizeof(Record)};

struct Object {
  ElemKind Kind;
  uint16_t Count;
};

struct Request {
  std::vector<Object> Objects;
  uint8_t Accesses;     ///< Checked element accesses per object.
  int32_t OutOfBounds;  ///< Object index read one past its end, or -1.
  bool Churn;           ///< Close the tenant and open a new one after.
};

std::vector<Request> makePlan(uint64_t Seed, unsigned Client) {
  Rng R(Seed * 0x9e3779b97f4a7c15ull + Client + 1);
  static constexpr uint16_t Counts[][2] = {{1, 4}, {6, 16}, {24, 64},
                                           {100, 200}};
  std::vector<Request> Plan(RequestsPerPhase);
  for (Request &Req : Plan) {
    bool Bulk = R.range(1, BulkEvery) == 1;
    unsigned N = Bulk ? unsigned(R.range(20, 40)) : unsigned(R.range(3, 12));
    ElemKind BulkKind = ElemKind(R.range(0, NumKinds - 1));
    for (unsigned I = 0; I < N; ++I) {
      ElemKind K = Bulk ? BulkKind : ElemKind(R.range(0, NumKinds - 1));
      const uint16_t *Range = Counts[Bulk ? 0 : R.range(0, 3)];
      Req.Objects.push_back({K, uint16_t(R.range(Range[0], Range[1]))});
    }
    Req.Accesses = uint8_t(R.range(2, 8));
    Req.OutOfBounds = R.range(1, OutOfBoundsEvery) == 1
                          ? int32_t(R.range(0, N - 1))
                          : -1;
    Req.Churn = R.range(1, ChurnEvery) == 1;
  }
  return Plan;
}

long valueOf(size_t Object, unsigned Index) {
  return long((Object * 31 + Index) % 127);
}

void store(void *Base, ElemKind K, unsigned Index, long V) {
  switch (K) {
  case Int:
    static_cast<int *>(Base)[Index] = int(V);
    break;
  case Long:
    static_cast<long *>(Base)[Index] = V;
    break;
  case Double:
    static_cast<double *>(Base)[Index] = double(V);
    break;
  default:
    static_cast<Record *>(Base)[Index].Key = V;
    break;
  }
}

long load(const void *Base, ElemKind K, unsigned Index) {
  switch (K) {
  case Int:
    return static_cast<const int *>(Base)[Index];
  case Long:
    return static_cast<const long *>(Base)[Index];
  case Double:
    return long(static_cast<const double *>(Base)[Index]);
  default:
    return static_cast<const Record *>(Base)[Index].Key;
  }
}

/// One client: its tenant, its request list and its scratch space.
struct Client {
  std::vector<Request> Plan;
  TenantId Tenant = NoTenant;
  std::vector<void *> Ptrs;
  std::vector<Bounds> Bs;
  std::vector<double> LatencyUs; ///< This phase's request latencies.
  uint64_t Failures = 0;
  uint64_t Injected = 0;         ///< Out-of-bounds accesses this phase.
};

ServiceOptions serviceOptions(unsigned Clients) {
  ServiceOptions Options;
  Options.Shards = Clients + 1; // A spare shard: churn never waits.
  Options.Policy = CheckPolicy::Full;
  Options.Reporter.Mode = ReportMode::Count;
  Options.EnableGovernor = false;
  return Options;
}

TenantId openTenant(Supervisor &Sup) {
  Span S("service.open");
  TenantId T = Sup.openTenant("client");
  for (Clock::time_point Start = Clock::now();
       T == NoTenant && secondsSince(Start) < 5;
       T = Sup.openTenant("client"))
    std::this_thread::yield(); // A sibling's shard is mid-recycle.
  return T;
}

class Service {
public:
  explicit Service(unsigned Clients) : Sup(serviceOptions(Clients)) {
    // The pool's sessions share one type context; intern the request
    // types there once.
    TenantId T = Sup.openTenant("types");
    {
      Supervisor::Lease L = Sup.lease(T);
      TypeContext &Ctx = L->types();
      Types = {Ctx.getInt(), Ctx.getLong(), Ctx.getDouble(),
               TypeOf<Record>::get(Ctx)};
    }
    Sup.closeTenant(T);
  }

  /// One request under \p Policy, with spans when \p Spans. Returns
  /// false on a failed operation.
  bool request(Client &C, const Request &Req, CheckPolicy Policy,
               bool Spans) {
    MuteSpans Mute(!Spans);
    return serve(C, Req, Policy, Spans ? Tracer::instance().newGroup() : 0);
  }

  Supervisor Sup;

private:
  bool serve(Client &C, const Request &Req, CheckPolicy Policy,
             uint64_t Group) {
    Span RequestSpan("service.request", Group);
    Supervisor::Lease L;
    {
      Span S("service.lease", Group);
      L = Sup.lease(C.Tenant);
    }
    if (!L)
      return false;
    Sanitizer &S = L.session();
    if (S.policy() != Policy)
      S.setPolicy(Policy);
    size_t N = Req.Objects.size();
    C.Ptrs.resize(N);
    C.Bs.resize(N);
    {
      Span Sp("api.malloc", Group, N);
      for (size_t I = 0; I < N; ++I) {
        const Object &O = Req.Objects[I];
        C.Ptrs[I] = S.malloc(O.Count * ElemSize[O.Kind], Types[O.Kind]);
      }
    }
    {
      Span Sp("api.typeCheck", Group, N);
      for (size_t I = 0; I < N; ++I)
        C.Bs[I] = S.typeCheck(C.Ptrs[I], Types[Req.Objects[I].Kind]);
    }
    uint64_t Checks = 0;
    for (size_t I = 0; I < N; ++I)
      Checks += std::min<unsigned>(Req.Accesses, Req.Objects[I].Count);
    {
      Span Sp("api.boundsCheck", Group,
              Checks + (Req.OutOfBounds >= 0 ? 1 : 0));
      for (size_t I = 0; I < N; ++I) {
        const Object &O = Req.Objects[I];
        char *Base = static_cast<char *>(C.Ptrs[I]);
        for (unsigned E = 0; E < Req.Accesses && E < O.Count; ++E)
          S.boundsCheck(Base + E * ElemSize[O.Kind], ElemSize[O.Kind],
                        C.Bs[I]);
      }
      if (Req.OutOfBounds >= 0) {
        // The seeded defect: a check of the element one past the end.
        // Nothing is dereferenced, so the defect is harmless under
        // every policy; under Full and BoundsOnly it is reported.
        const Object &O = Req.Objects[Req.OutOfBounds];
        S.boundsCheck(static_cast<char *>(C.Ptrs[Req.OutOfBounds]) +
                          O.Count * ElemSize[O.Kind],
                      ElemSize[O.Kind], C.Bs[Req.OutOfBounds]);
        ++C.Injected;
      }
    }
    // The request's result: write the checked elements, read them back.
    long Sum = 0, Want = 0;
    for (size_t I = 0; I < N; ++I) {
      const Object &O = Req.Objects[I];
      for (unsigned E = 0; E < Req.Accesses && E < O.Count; ++E) {
        store(C.Ptrs[I], O.Kind, E, valueOf(I, E));
        Want += valueOf(I, E);
      }
      for (unsigned E = 0; E < Req.Accesses && E < O.Count; ++E)
        Sum += load(C.Ptrs[I], O.Kind, E);
    }
    {
      Span Sp("api.free", Group, N);
      for (size_t I = 0; I < N; ++I)
        S.free(C.Ptrs[I]);
    }
    {
      Span Sp("service.release", Group);
      L.reset();
    }
    if (Req.Churn) {
      {
        Span Sp("service.close", Group);
        Sup.closeTenant(C.Tenant);
      }
      C.Tenant = openTenant(Sup);
      if (C.Tenant == NoTenant)
        return false;
    }
    return Sum == Want;
  }

  std::array<const TypeInfo *, NumKinds> Types;
};

/// ServiceStats fields a Full phase moves, as deltas.
struct PhaseStats {
  double LeasesRefused, DrainTicks, DrainedEvents, TenantsClosed,
      RingOverflows, RingFallbacks, MagazineHitRatio, MagazineRefills, Steals,
      QuarantinedBytes;
};

} // namespace

Result perfbench::runService(const Args &A) {
  Result Res;
  const unsigned NumClients = workerThreads();

  // Set-up: supervisor (pool, drainer, watchdog), one tenant per
  // client and the request types interned.
  auto SetUp = [&] {
    Clock::time_point Start = Clock::now();
    Service Svc(NumClients);
    for (unsigned C = 0; C < NumClients; ++C)
      if (openTenant(Svc.Sup) == NoTenant)
        Res.fail("set-up: no free shard for client %u", C);
    return secondsSince(Start); // Tear-down is not set-up.
  };
  std::vector<double> Setups = initialSetups(SetUp);

  Service Svc(NumClients);
  Supervisor &Sup = Svc.Sup;
  if (Sup.reporter().options().Mode != ReportMode::Count) {
    std::fprintf(stderr, "perfbench: service reporter is not counting\n");
    std::exit(3);
  }
  std::vector<Client> Clients(NumClients);
  for (unsigned C = 0; C < NumClients; ++C) {
    Clients[C].Plan = makePlan(A.Seed, C);
    Clients[C].LatencyUs.reserve(RequestsPerPhase);
    Clients[C].Tenant = openTenant(Sup);
    if (Clients[C].Tenant == NoTenant)
      Res.fail("no free shard for client %u", C);
  }

  std::vector<std::array<double, NumVariants>> PhaseSeconds;
  std::vector<double> RefSeconds;
  std::vector<double> P50, P99;
  std::vector<PhaseStats> FullStats;
  std::vector<double> Latencies;
  auto Round = [&](unsigned Index, bool Traced) {
    Span RoundSpan("service.round");
    double Reference = referenceSeconds();
    std::array<double, NumVariants> Seconds{};
    unsigned Rotation = unsigned((A.Seed + Index) % NumVariants);
    for (unsigned Step = 0; Step < NumVariants; ++Step) {
      unsigned V = (Rotation + Step) % NumVariants;
      bool Spans = Traced && V == Full;
      ServiceStats Before = Sup.stats();
      lowfat::HeapStats HeapBefore = Sup.pool().heap().stats();
      for (Client &C : Clients) {
        C.LatencyUs.clear();
        C.Injected = C.Failures = 0;
      }
      // Fresh client threads per phase: where the scheduler places them
      // relative to each other and the drainer is drawn anew each phase
      // instead of once per process.
      Team Members(NumClients);
      Seconds[V] = Members.run([&](unsigned I) {
        Client &C = Clients[I];
        for (size_t R = 0; R < C.Plan.size(); ++R) {
          Clock::time_point Start = Clock::now();
          bool Ok = Svc.request(C, C.Plan[R], Policies[V],
                                Spans && R % SpanEvery == 0);
          C.LatencyUs.push_back(secondsSince(Start) * 1e6);
          C.Failures += !Ok;
        }
      });
      // Every injected error must reach the drainer: after one more
      // forced tick the drained count equals the injected count under
      // the policies that check bounds, and zero under the others.
      Sup.tick();
      ServiceStats After = Sup.stats();
      uint64_t Injected = 0;
      for (Client &C : Clients) {
        Res.Attempted += C.Plan.size();
        Injected += C.Injected;
        for (uint64_t F = 0; F < C.Failures; ++F)
          Res.fail("client request failed under %s (lease refused, no "
                   "shard, or wrong result)",
                   std::string(checkPolicyName(Policies[V])).c_str());
      }
      bool Reported = Policies[V] == CheckPolicy::Full ||
                      Policies[V] == CheckPolicy::BoundsOnly;
      uint64_t Drained = After.DrainedEvents - Before.DrainedEvents;
      if (Drained != (Reported ? Injected : 0))
        Res.fail("%s phase: %llu events drained, %llu injected",
                 std::string(checkPolicyName(Policies[V])).c_str(),
                 (unsigned long long)Drained,
                 (unsigned long long)(Reported ? Injected : 0));
      if (Traced || V != Full)
        continue;
      Latencies.clear();
      for (Client &C : Clients)
        Latencies.insert(Latencies.end(), C.LatencyUs.begin(),
                         C.LatencyUs.end());
      P50.push_back(percentile(Latencies, 50));
      P99.push_back(percentile(Latencies, 99));
      lowfat::HeapStats HeapAfter = Sup.pool().heap().stats();
      uint64_t Allocs = HeapAfter.NumAllocs - HeapBefore.NumAllocs;
      FullStats.push_back(
          {double(After.LeasesRefused - Before.LeasesRefused),
           double(After.DrainTicks - Before.DrainTicks), double(Drained),
           double(After.TenantsClosed - Before.TenantsClosed),
           double(After.RingOverflows - Before.RingOverflows),
           double(After.RingFallbacks - Before.RingFallbacks),
           Allocs ? double(HeapAfter.MagazineHits - HeapBefore.MagazineHits) /
                        Allocs
                  : 0,
           double(HeapAfter.MagazineRefills - HeapBefore.MagazineRefills),
           double(HeapAfter.Steals - HeapBefore.Steals),
           double(HeapAfter.QuarantinedBytes)});
    }
    if (!Traced) {
      PhaseSeconds.push_back(Seconds);
      RefSeconds.push_back(Reference);
      Setups.push_back(SetUp());
    }
  };
  RoundTimes Rounds = measureRounds(A, 3, 2, Round);
  Res.Rounds = Rounds.Untraced.size();

  auto PerRound = [&](auto Fn) {
    std::vector<double> Values;
    for (const auto &S : PhaseSeconds)
      Values.push_back(Fn(S));
    return median(Values);
  };
  double FullSeconds = PerRound([](const auto &S) { return S[Full]; });
  if (!A.Trace) {
    Res.set("setup_s", median(Setups));
    const char *Names[] = {nullptr, "overhead_type_x", "overhead_bounds_x",
                           "overhead_full_x"};
    for (unsigned V = 1; V < NumVariants; ++V)
      Res.set(Names[V],
              PerRound([V](const auto &S) { return S[V] / S[None]; }));
    std::vector<double> PassRef;
    for (size_t R = 0; R < PhaseSeconds.size(); ++R)
      PassRef.push_back(PhaseSeconds[R][Full] / RefSeconds[R]);
    Res.set("pass_ref_x", median(PassRef));
    return Res;
  }

  Res.set("trace.overhead_x", median(Rounds.Traced) / median(Rounds.Untraced));
  Res.set("service.requests_s",
          NumClients * double(RequestsPerPhase) / FullSeconds);
  Res.set("service.latency_p50_us", median(P50));
  Res.set("service.latency_p99_us", median(P99));
  auto Stat = [&](double PhaseStats::*Field) {
    std::vector<double> Values;
    for (const PhaseStats &S : FullStats)
      Values.push_back(S.*Field);
    return median(Values);
  };
  Res.set("service.leases_refused", Stat(&PhaseStats::LeasesRefused));
  Res.set("service.drain_ticks", Stat(&PhaseStats::DrainTicks));
  Res.set("service.drained_events", Stat(&PhaseStats::DrainedEvents));
  Res.set("service.tenants_closed", Stat(&PhaseStats::TenantsClosed));
  Res.set("concurrent.ring_overflows", Stat(&PhaseStats::RingOverflows));
  Res.set("concurrent.ring_fallbacks", Stat(&PhaseStats::RingFallbacks));
  Res.set("lowfat.magazine_hit_ratio", Stat(&PhaseStats::MagazineHitRatio));
  Res.set("lowfat.magazine_refills", Stat(&PhaseStats::MagazineRefills));
  Res.set("lowfat.steals", Stat(&PhaseStats::Steals));
  Res.set("lowfat.quarantined_bytes", Stat(&PhaseStats::QuarantinedBytes));
  return Res;
}
