// Sandbox: resource accounting, syscall filtering, chroot VFS, netfilter.
#include <gtest/gtest.h>

#include <stdexcept>

#include "sandbox/netfilter.hpp"
#include "sandbox/resources.hpp"
#include "sandbox/syscalls.hpp"
#include "sandbox/vfs.hpp"

namespace sb = bento::sandbox;
namespace bu = bento::util;
namespace bt = bento::tor;

TEST(Resources, MemoryLimitEnforced) {
  sb::ResourceLimits limits;
  limits.memory_bytes = 1000;
  sb::ResourceAccountant acct(limits);
  acct.charge_memory(900);
  EXPECT_EQ(acct.usage().memory_bytes, 900u);
  EXPECT_THROW(acct.charge_memory(1001), sb::ResourceExceeded);
  // Watermark semantics: shrinking works.
  acct.charge_memory(100);
  EXPECT_EQ(acct.usage().memory_bytes, 100u);
}

TEST(Resources, CpuBudgetCumulative) {
  sb::ResourceLimits limits;
  limits.cpu_instructions = 100;
  sb::ResourceAccountant acct(limits);
  for (int i = 0; i < 10; ++i) acct.charge_cpu(10);
  EXPECT_THROW(acct.charge_cpu(1), sb::ResourceExceeded);
}

TEST(Resources, DiskQuotaTracksDeltas) {
  sb::ResourceLimits limits;
  limits.disk_bytes = 100;
  sb::ResourceAccountant acct(limits);
  acct.charge_disk(80);
  acct.charge_disk(-30);
  acct.charge_disk(50);
  EXPECT_EQ(acct.usage().disk_bytes, 100u);
  EXPECT_THROW(acct.charge_disk(1), sb::ResourceExceeded);
}

TEST(Resources, FileAndConnectionCounts) {
  sb::ResourceLimits limits;
  limits.max_open_files = 2;
  limits.max_connections = 1;
  sb::ResourceAccountant acct(limits);
  acct.open_file();
  acct.open_file();
  EXPECT_THROW(acct.open_file(), sb::ResourceExceeded);
  acct.close_file();
  acct.open_file();
  acct.open_connection();
  EXPECT_THROW(acct.open_connection(), sb::ResourceExceeded);
  acct.close_connection();
  acct.open_connection();
}

TEST(Resources, AggregateCapAcrossContainers) {
  // Paper §6.2: a flood of functions must not starve the relay; the
  // aggregate cap fails the *newcomer*, not the host.
  sb::ResourceLimits totals;
  totals.memory_bytes = 1000;
  sb::AggregateAccountant aggregate(totals);

  sb::ResourceLimits per;
  per.memory_bytes = 800;
  sb::ResourceAccountant a(per, &aggregate);
  sb::ResourceAccountant b(per, &aggregate);
  a.charge_memory(600);
  EXPECT_THROW(b.charge_memory(600), sb::ResourceExceeded);
  b.charge_memory(300);
  EXPECT_EQ(aggregate.usage().memory_bytes, 900u);
}

TEST(Resources, DestructionReleasesAggregate) {
  sb::ResourceLimits totals;
  totals.memory_bytes = 1000;
  sb::AggregateAccountant aggregate(totals);
  {
    sb::ResourceAccountant a({}, &aggregate);
    a.charge_memory(700);
  }
  EXPECT_EQ(aggregate.usage().memory_bytes, 0u);
  sb::ResourceAccountant b({}, &aggregate);
  b.charge_memory(900);  // fits again
}

TEST(Syscalls, NamesRoundTrip) {
  for (std::size_t i = 0; i < sb::kSyscallCount; ++i) {
    const auto call = static_cast<sb::Syscall>(i);
    EXPECT_EQ(sb::syscall_from_string(sb::to_string(call)), call);
  }
  EXPECT_THROW(sb::syscall_from_string("rm_rf"), std::invalid_argument);
}

TEST(Syscalls, FilterAllowsAndDenies) {
  sb::SyscallFilter filter({sb::Syscall::FsRead, sb::Syscall::Clock});
  EXPECT_TRUE(filter.allows(sb::Syscall::FsRead));
  EXPECT_FALSE(filter.allows(sb::Syscall::NetConnect));
  filter.check(sb::Syscall::Clock);
  EXPECT_THROW(filter.check(sb::Syscall::Fork), sb::SyscallDenied);
  EXPECT_EQ(filter.violations(), 1u);
}

TEST(Syscalls, IntersectionIsTheEnforcedSet) {
  // Paper §5.5: the sandbox permits only manifest ∩ node policy.
  sb::SyscallFilter node_policy(
      {sb::Syscall::FsRead, sb::Syscall::FsWrite, sb::Syscall::NetConnect});
  sb::SyscallFilter manifest(
      {sb::Syscall::FsRead, sb::Syscall::TorCircuit, sb::Syscall::NetConnect});
  auto enforced = node_policy.intersect(manifest);
  EXPECT_TRUE(enforced.allows(sb::Syscall::FsRead));
  EXPECT_TRUE(enforced.allows(sb::Syscall::NetConnect));
  EXPECT_FALSE(enforced.allows(sb::Syscall::FsWrite));    // manifest didn't ask
  EXPECT_FALSE(enforced.allows(sb::Syscall::TorCircuit)); // node refuses
}

TEST(Syscalls, AllowAllAndDenyAll) {
  EXPECT_TRUE(sb::SyscallFilter::allow_all().allows(sb::Syscall::Exec));
  EXPECT_FALSE(sb::SyscallFilter::deny_all().allows(sb::Syscall::Clock));
}

TEST(Vfs, ChrootNormalization) {
  EXPECT_EQ(sb::chroot_normalize("/a/b/c"), "a/b/c");
  EXPECT_EQ(sb::chroot_normalize("a//b/./c/"), "a/b/c");
  EXPECT_EQ(sb::chroot_normalize("../../../etc/passwd"), "etc/passwd");
  EXPECT_EQ(sb::chroot_normalize("a/../b"), "b");
  EXPECT_EQ(sb::chroot_normalize("a/b/../../.."), "");
  EXPECT_EQ(sb::chroot_normalize(""), "");
}

TEST(Vfs, EscapeAttemptStaysInside) {
  sb::ResourceLimits limits;
  sb::ResourceAccountant acct(limits);
  sb::Vfs vfs(std::make_unique<sb::MemoryBackend>(), acct);
  vfs.write("secret.txt", bu::to_bytes("inside"));
  // "../secret.txt" normalizes to the same chrooted path.
  auto got = vfs.read("/../secret.txt");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(bu::to_string(*got), "inside");
}

TEST(Vfs, ReadWriteRemoveAccounting) {
  sb::ResourceLimits limits;
  limits.disk_bytes = 100;
  sb::ResourceAccountant acct(limits);
  sb::Vfs vfs(std::make_unique<sb::MemoryBackend>(), acct);

  vfs.write("a", bu::Bytes(60, 1));
  EXPECT_EQ(acct.usage().disk_bytes, 60u);
  vfs.write("a", bu::Bytes(20, 2));  // overwrite shrinks usage
  EXPECT_EQ(acct.usage().disk_bytes, 20u);
  vfs.write("b", bu::Bytes(80, 3));
  EXPECT_THROW(vfs.write("c", bu::Bytes(10, 4)), sb::ResourceExceeded);
  EXPECT_FALSE(vfs.read("c").has_value());  // failed write left no trace
  EXPECT_TRUE(vfs.remove("b"));
  EXPECT_EQ(acct.usage().disk_bytes, 20u);
  EXPECT_EQ(vfs.list(), std::vector<std::string>{"a"});
}

TEST(Vfs, UnwritablePathsRejectedUniformlyAcrossBackends) {
  // "/" normalizes to the empty key, which the blob store refuses; the Vfs
  // must reject it up front so guests see identical behavior on the memory
  // and persistent mounts, and the accountant is never charged for it.
  sb::ResourceLimits limits;
  limits.disk_bytes = 100;

  sb::ResourceAccountant mem_acct(limits);
  sb::Vfs mem_vfs(std::make_unique<sb::MemoryBackend>(), mem_acct);
  EXPECT_THROW(mem_vfs.write("/", bu::to_bytes("x")), std::invalid_argument);
  EXPECT_EQ(mem_acct.usage().disk_bytes, 0u);
  EXPECT_TRUE(mem_vfs.list().empty());

  sb::ResourceAccountant store_acct(limits);
  bento::store::Volume volume;
  bento::store::BlobStore blob(volume, bento::store::make_null_sealer());
  blob.replay();
  sb::Vfs store_vfs(std::make_unique<sb::StoreBackend>(&blob), store_acct);
  EXPECT_THROW(store_vfs.write("/", bu::to_bytes("x")), std::invalid_argument);
  EXPECT_THROW(store_vfs.write("a/../..", bu::to_bytes("x")),
               std::invalid_argument);
  EXPECT_EQ(store_acct.usage().disk_bytes, 0u);
  EXPECT_EQ(blob.live_files(), 0u);
}

TEST(Vfs, MountChargesWhatTheBackendAlreadyHolds) {
  // A replayed persistent store is charged like fresh writes when the Vfs
  // mounts it; one that no longer fits the disk budget fails the mount.
  bento::store::Volume volume;
  {
    bento::store::BlobStore writer(volume, bento::store::make_null_sealer());
    writer.replay();
    writer.put("a", bu::Bytes(30, 1));
    writer.put("b", bu::Bytes(50, 2));
  }
  bento::store::BlobStore blob(volume, bento::store::make_null_sealer());
  blob.replay();
  sb::ResourceLimits limits;
  limits.disk_bytes = 79;
  sb::ResourceAccountant tight(limits);
  EXPECT_THROW(sb::Vfs(std::make_unique<sb::StoreBackend>(&blob), tight),
               sb::ResourceExceeded);

  limits.disk_bytes = 100;
  sb::ResourceAccountant acct(limits);
  sb::Vfs vfs(std::make_unique<sb::StoreBackend>(&blob), acct);
  EXPECT_EQ(acct.usage().disk_bytes, 80u);
  vfs.write("a", bu::Bytes(10, 3));  // an overwrite charges the difference
  EXPECT_EQ(acct.usage().disk_bytes, 60u);
  EXPECT_TRUE(vfs.remove("b"));
  EXPECT_EQ(acct.usage().disk_bytes, 10u);
}

TEST(Vfs, FailedBackendPutRollsBackDiskCharge) {
  // If the backend throws after the charge, the accountant must be restored
  // — a guest must not be able to leak quota via failed writes.
  class ThrowingBackend final : public sb::VfsBackend {
   public:
    void write(const std::string&, bu::ByteView) override {
      throw std::runtime_error("media error");
    }
    std::optional<bu::Bytes> read(const std::string&) const override {
      return std::nullopt;
    }
    bool remove(const std::string&) override { return false; }
    std::vector<std::string> list() const override { return {}; }
    std::optional<std::size_t> size_of(const std::string&) const override {
      return std::nullopt;
    }
  };
  sb::ResourceLimits limits;
  limits.disk_bytes = 100;
  sb::ResourceAccountant acct(limits);
  sb::Vfs vfs(std::make_unique<ThrowingBackend>(), acct);
  EXPECT_THROW(vfs.write("a", bu::Bytes(60, 1)), std::runtime_error);
  EXPECT_EQ(acct.usage().disk_bytes, 0u);
  EXPECT_FALSE(vfs.read("a").has_value());
  // The full budget is still available afterwards.
  acct.charge_disk(100);
  EXPECT_EQ(acct.usage().disk_bytes, 100u);
}

TEST(Vfs, MissingFileBehaviour) {
  sb::ResourceLimits limits;
  sb::ResourceAccountant acct(limits);
  sb::Vfs vfs(std::make_unique<sb::MemoryBackend>(), acct);
  EXPECT_FALSE(vfs.read("nope").has_value());
  EXPECT_FALSE(vfs.remove("nope"));
  EXPECT_TRUE(vfs.list().empty());
}

TEST(NetFilter, CompiledFromExitPolicy) {
  auto policy = bt::ExitPolicy::parse("accept *:80\naccept *:443\nreject *:*");
  auto filter = sb::NetFilter::from_exit_policy(policy);
  EXPECT_TRUE(filter.allows({bt::parse_addr("1.2.3.4"), 443}));
  EXPECT_FALSE(filter.allows({bt::parse_addr("1.2.3.4"), 25}));
  EXPECT_TRUE(filter.any_access());
}

TEST(NetFilter, NonExitRelayDeniesDirectNetwork) {
  // Paper §5.3: a non-exit relay's functions are "strictly limited to
  // communicating via Tor circuits".
  auto filter = sb::NetFilter::from_exit_policy(bt::ExitPolicy::reject_all());
  EXPECT_FALSE(filter.any_access());
  EXPECT_FALSE(filter.check({bt::parse_addr("8.8.8.8"), 53}));
  EXPECT_EQ(filter.rejected_count(), 1u);
}

TEST(NetFilter, DenyAllCountsRejects) {
  auto filter = sb::NetFilter::deny_all();
  filter.check({1, 1});
  filter.check({2, 2});
  EXPECT_EQ(filter.rejected_count(), 2u);
}
