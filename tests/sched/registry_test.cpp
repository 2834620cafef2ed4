#include "sched/registry.hpp"

#include <gtest/gtest.h>

#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "util/check.hpp"

namespace fadesched::sched {
namespace {

TEST(RegistryTest, AllKnownNamesConstruct) {
  for (const std::string& name : KnownSchedulers()) {
    const SchedulerPtr scheduler = MakeScheduler(name);
    ASSERT_NE(scheduler, nullptr) << name;
    EXPECT_EQ(scheduler->Name(), name);
  }
}

TEST(RegistryTest, UnknownNameThrows) {
  EXPECT_THROW(MakeScheduler("definitely_not_a_scheduler"),
               util::CheckFailure);
  EXPECT_THROW(MakeScheduler(""), util::CheckFailure);
}

TEST(RegistryTest, KnownListIsNonTrivial) {
  const auto names = KnownSchedulers();
  EXPECT_GE(names.size(), 8u);
}

TEST(RegistryTest, EveryRegisteredSchedulerRunsOnSmallInstance) {
  rng::Xoshiro256 gen(1);
  net::UniformScenarioParams sp;
  sp.region_size = 200.0;
  const net::LinkSet links = net::MakeUniformScenario(12, sp, gen);
  channel::ChannelParams params;
  for (const std::string& name : KnownSchedulers()) {
    const auto result = MakeScheduler(name)->Schedule(links, params);
    EXPECT_EQ(result.algorithm, name);
    EXPECT_GE(result.claimed_rate, 0.0) << name;
    for (net::LinkId id : result.schedule) {
      EXPECT_LT(id, links.Size()) << name;
    }
  }
}

SchedulerFactory DummyFactory(const std::string& name) {
  return [name](const channel::EngineOptions&) -> SchedulerPtr {
    class Dummy final : public Scheduler {
     public:
      explicit Dummy(std::string n) : name_(std::move(n)) {}
      [[nodiscard]] std::string Name() const override { return name_; }
      [[nodiscard]] ScheduleResult Schedule(
          const net::LinkSet& links,
          const channel::ChannelParams&) const override {
        return FinalizeResult(links, {}, name_);
      }

     private:
      std::string name_;
    };
    return std::make_unique<Dummy>(name);
  };
}

TEST(RegistryTest, DuplicateBuiltinNameFailsLoudly) {
  SchedulerContract contract;
  contract.name = "rle";  // shadowing a built-in must be impossible
  try {
    RegisterScheduler(contract, DummyFactory("rle"));
    FAIL() << "duplicate registration was accepted";
  } catch (const util::CheckFailure& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("duplicate scheduler name 'rle'"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("shadowing is forbidden"), std::string::npos)
        << message;
  }
  // The built-in is untouched by the failed attempt.
  EXPECT_EQ(MakeScheduler("rle")->Name(), "rle");
}

TEST(RegistryTest, DuplicateExtensionNameFailsLoudly) {
  ScopedSchedulerRegistration first({.name = "ext_dup_test"},
                                    DummyFactory("ext_dup_test"));
  SchedulerContract contract;
  contract.name = "ext_dup_test";
  EXPECT_THROW(RegisterScheduler(contract, DummyFactory("ext_dup_test")),
               util::CheckFailure);
  // Exactly one registration exists despite the failed duplicate.
  std::size_t count = 0;
  for (const std::string& name : KnownSchedulers()) {
    if (name == "ext_dup_test") ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST(RegistryTest, EmptyNameIsRejected) {
  EXPECT_THROW(RegisterScheduler(SchedulerContract{}, DummyFactory("")),
               util::CheckFailure);
}

TEST(RegistryTest, ScopedRegistrationUnregistersOnDestruction) {
  EXPECT_FALSE(IsRegisteredScheduler("ext_scoped_test"));
  {
    ScopedSchedulerRegistration scoped({.name = "ext_scoped_test"},
                                       DummyFactory("ext_scoped_test"));
    EXPECT_TRUE(IsRegisteredScheduler("ext_scoped_test"));
    EXPECT_EQ(MakeScheduler("ext_scoped_test")->Name(), "ext_scoped_test");
    EXPECT_EQ(ContractFor("ext_scoped_test").name, "ext_scoped_test");
  }
  EXPECT_FALSE(IsRegisteredScheduler("ext_scoped_test"));
  EXPECT_THROW(MakeScheduler("ext_scoped_test"), util::CheckFailure);
}

TEST(RegistryTest, UnregisterRefusesBuiltins) {
  EXPECT_THROW(UnregisterScheduler("rle"), util::CheckFailure);
  EXPECT_THROW(UnregisterScheduler("never_registered"), util::CheckFailure);
  EXPECT_TRUE(IsRegisteredScheduler("rle"));
}

TEST(RegistryTest, EngineOptionsReachTheScheduler) {
  channel::EngineOptions options;
  options.backend = channel::FactorBackend::kCalculator;
  // The engine-aware factories thread the options through; the scheduler
  // must still produce the same schedule (pinned broadly by the
  // differential suite — here we just prove the plumbing constructs).
  const SchedulerPtr scheduler = MakeScheduler("rle", options);
  ASSERT_NE(scheduler, nullptr);
  EXPECT_EQ(scheduler->Name(), "rle");
}

TEST(RegistryTest, SchedulersAreStatelessAcrossCalls) {
  rng::Xoshiro256 gen(2);
  const net::LinkSet a = net::MakeUniformScenario(30, {}, gen);
  const net::LinkSet b = net::MakeUniformScenario(30, {}, gen);
  channel::ChannelParams params;
  const SchedulerPtr ldp = MakeScheduler("ldp");
  const auto first_a = ldp->Schedule(a, params).schedule;
  (void)ldp->Schedule(b, params);  // interleave another instance
  EXPECT_EQ(ldp->Schedule(a, params).schedule, first_a);
}

}  // namespace
}  // namespace fadesched::sched
