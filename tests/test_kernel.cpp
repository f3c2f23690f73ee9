#include "kernel/kernel.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "kernel/dump.h"

namespace gb::kernel {
namespace {

TEST(Kernel, CreateProcessLinksEverywhere) {
  Kernel k;
  Process& p = k.create_process("C:\\windows\\explorer.exe", 4, 3);
  EXPECT_EQ(p.image_name(), "explorer.exe");
  EXPECT_EQ(k.active_process_list().size(), 1u);
  EXPECT_EQ(k.id_table().size(), 1u);
  EXPECT_EQ(k.scheduler_threads().size(), 3u);
  EXPECT_EQ(k.find_process(p.pid()), &p);
  EXPECT_EQ(k.find_process_by_name("EXPLORER.EXE"), &p);
}

TEST(Kernel, PidsAreWindowsStyleMultiples) {
  Kernel k;
  const Pid a = k.create_process("a.exe").pid();
  const Pid b = k.create_process("b.exe").pid();
  EXPECT_EQ(a % 4, 0u);
  EXPECT_EQ(b, a + 4);
}

TEST(Kernel, TerminateRemovesEverything) {
  Kernel k;
  const Pid pid = k.create_process("x.exe", 4, 2).pid();
  k.create_process("y.exe");
  k.terminate_process(pid);
  EXPECT_EQ(k.find_process(pid), nullptr);
  EXPECT_EQ(k.active_process_list().size(), 1u);
  EXPECT_EQ(k.scheduler_threads().size(), 2u);
  EXPECT_THROW(k.terminate_process(pid), KernelError);
}

TEST(Kernel, DkomUnlinkHidesFromActiveListOnly) {
  Kernel k;
  const Pid victim = k.create_process("hideme.exe", 4, 2).pid();
  k.create_process("other.exe");

  ASSERT_TRUE(k.dkom_unlink(victim));
  // Gone from the active list (and thus the low-level basic scan)...
  EXPECT_EQ(k.walk_active_list().size(), 1u);
  EXPECT_EQ(k.low_level_process_scan().size(), 1u);
  // ...but the object and its threads live on.
  EXPECT_NE(k.find_process(victim), nullptr);
  const auto advanced = k.advanced_process_scan();
  EXPECT_EQ(advanced.size(), 2u);

  // Unlinking twice fails; relink restores.
  EXPECT_FALSE(k.dkom_unlink(victim));
  EXPECT_TRUE(k.dkom_relink(victim));
  EXPECT_EQ(k.walk_active_list().size(), 2u);
  EXPECT_FALSE(k.dkom_relink(victim));
}

TEST(Kernel, SsdtProcessEnumerationUsesActiveList) {
  Kernel k;
  k.create_process("a.exe");
  const Pid b = k.create_process("b.exe").pid();
  const SyscallContext ctx{b, "b.exe"};
  EXPECT_EQ(k.ssdt().nt_query_system_information(ctx).size(), 2u);
  k.dkom_unlink(b);
  EXPECT_EQ(k.ssdt().nt_query_system_information(ctx).size(), 1u);
}

TEST(Kernel, ModuleLoadUpdatesBothViews) {
  Kernel k;
  Process& p = k.create_process("host.exe");
  p.load_module("C:\\windows\\system32\\evil.dll");
  ASSERT_EQ(p.peb_modules().size(), 2u);  // image + dll
  ASSERT_EQ(p.kernel_modules().size(), 2u);
  EXPECT_EQ(p.peb_modules()[1].name, "evil.dll");
  EXPECT_EQ(p.kernel_modules()[1].path, "C:\\windows\\system32\\evil.dll");
}

TEST(Kernel, DriverListLoadUnload) {
  Kernel k;
  k.load_driver("tcpip", "C:\\windows\\system32\\drivers\\tcpip.sys");
  k.load_driver("evil", "C:\\evil.sys");
  EXPECT_EQ(k.drivers().size(), 2u);
  EXPECT_TRUE(k.unload_driver("EVIL"));
  EXPECT_EQ(k.drivers().size(), 1u);
  EXPECT_FALSE(k.unload_driver("evil"));
}

TEST(FilterChain, FiltersStackAndDetach) {
  FileFilterChain chain;
  const auto base = [](const Irp&) {
    return std::vector<FindData>{{"visible.txt", false, 1, 0},
                                 {"secret.txt", false, 2, 0}};
  };
  EXPECT_EQ(chain.query_directory(Irp{}, base).size(), 2u);

  FilterDriver hider;
  hider.name = "hider";
  hider.on_query_directory = [](const Irp& irp, const auto& next) {
    auto entries = next(irp);
    std::erase_if(entries,
                  [](const FindData& e) { return e.name == "secret.txt"; });
    return entries;
  };
  chain.attach(std::move(hider));
  EXPECT_EQ(chain.query_directory(Irp{}, base).size(), 1u);

  // Per-process scoping via the IRP.
  FilterDriver scoped;
  scoped.name = "scoped";
  scoped.on_query_directory = [](const Irp& irp, const auto& next) {
    auto entries = next(irp);
    if (irp.requester_image == "taskmgr.exe") {
      std::erase_if(entries,
                    [](const FindData& e) { return e.name == "visible.txt"; });
    }
    return entries;
  };
  chain.attach(std::move(scoped));
  EXPECT_EQ(chain.query_directory(Irp{1, "explorer.exe", "C:"}, base).size(),
            1u);
  EXPECT_TRUE(chain.query_directory(Irp{2, "taskmgr.exe", "C:"}, base).empty());

  EXPECT_EQ(chain.detach("hider"), 1u);
  EXPECT_EQ(chain.query_directory(Irp{1, "explorer.exe", "C:"}, base).size(),
            2u);
}

TEST(KernelDump, RoundTripAllTables) {
  Kernel k;
  Process& a = k.create_process("C:\\a.exe", 4, 2);
  Process& b = k.create_process("C:\\b.exe", a.pid(), 1);
  b.load_module("C:\\windows\\vanquish.dll");
  b.peb_modules().back().path.clear();  // blanked entry must survive
  k.load_driver("drv", "C:\\drv.sys");
  k.dkom_unlink(a.pid());

  const auto dump_bytes = write_dump(k);
  const KernelDump dump = parse_dump(dump_bytes);

  EXPECT_EQ(dump.processes.size(), 2u);
  EXPECT_EQ(dump.active_list.size(), 1u);  // a unlinked
  EXPECT_EQ(dump.threads.size(), 3u);
  EXPECT_EQ(dump.drivers.size(), 1u);

  // Views: active view misses the unlinked process, thread view finds it.
  EXPECT_EQ(dump.active_view().size(), 1u);
  EXPECT_EQ(dump.thread_view().size(), 2u);

  const auto pb = std::ranges::find_if(
      dump.processes, [&](const auto& p) { return p.pid == b.pid(); });
  ASSERT_NE(pb, dump.processes.end());
  ASSERT_EQ(pb->peb_modules.size(), 2u);
  EXPECT_TRUE(pb->peb_modules[1].path.empty());
  EXPECT_EQ(pb->kernel_modules[1].path, "C:\\windows\\vanquish.dll");
}

TEST(KernelDump, PooledParseMatchesSerialByteForByte) {
  Kernel k;
  // Enough processes/modules that the parallel skim spans real work.
  for (int i = 0; i < 24; ++i) {
    Process& p =
        k.create_process("C:\\proc" + std::to_string(i) + ".exe", 4, 2);
    p.load_module("C:\\windows\\mod" + std::to_string(i) + ".dll");
    if (i % 5 == 0) k.dkom_unlink(p.pid());
  }
  k.load_driver("drv", "C:\\drv.sys");
  const auto dump_bytes = write_dump(k);

  const KernelDump serial = parse_dump(dump_bytes);
  for (const std::size_t workers : {1u, 2u, 8u}) {
    support::ThreadPool pool(workers);
    const KernelDump pooled = parse_dump(dump_bytes, &pool);
    // serialize_dump is parse_dump's exact inverse, so byte equality of
    // the re-serialized dumps is equality of every parsed field.
    EXPECT_EQ(serialize_dump(pooled), serialize_dump(serial))
        << "workers=" << workers;
  }
}

TEST(KernelDump, ParseRejectsGarbage) {
  std::vector<std::byte> junk(64, std::byte{0x55});
  EXPECT_THROW(parse_dump(junk), ParseError);

  Kernel k;
  k.create_process("a.exe");
  auto bytes = write_dump(k);
  bytes.push_back(std::byte{0});  // trailing garbage
  EXPECT_THROW(parse_dump(bytes), ParseError);
}

}  // namespace
}  // namespace gb::kernel
