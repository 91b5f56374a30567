//! Disassembly golden test for the paired-stream kernels (DESIGN.md §3b)
//! and the table build.
//!
//! The kernel win of the paired stream is an instruction-mix claim: per
//! 32-byte weight load the AVX2 GEMV loop issues exactly two `vpshufb` and
//! no other shuffle-port work, and the mpGEMM row loop looks a decoded
//! scale block up with its accumulators in registers. The `Avx512` family's
//! `zmm` kernels make the same claims per 64-byte load, on `zmm` only, and
//! its `vpermb` kernels' loops are nothing but index builds, `vpermb`
//! lookups and `vpdpbusd` combines, one table per four k-groups (the
//! 2–4-row kernel's in registers, with nothing spilled). The
//! table build's claim is the same kind: its k-group loop is vector code. A
//! refactor (or a compiler upgrade) can lose that silently while every
//! numerical test stays green, so this test disassembles *this test
//! binary's own copy* of the kernels (`#[inline(never)]` keeps them
//! findable) and checks the loops.
//!
//! It needs optimized code and `objdump`; it skips, printing why, in debug
//! builds, without AVX2 (the `zmm` checks: without the `Avx512` family), or where
//! `/usr/bin/objdump` is not installed. CI runs it with
//! `cargo test --release -p tmac --test disasm`.

#![cfg(target_arch = "x86_64")]

use std::process::Command;
use tmac::core::{ExecCtx, KernelOpts, TmacLinear};
use tmac::simd::Isa;

/// One disassembled instruction: address and `mnemonic operands` text.
struct Insn {
    addr: u64,
    text: String,
}

impl Insn {
    fn is(&self, mnemonic: &str) -> bool {
        self.text.split_whitespace().next() == Some(mnemonic)
    }

    /// The target of a jump instruction, if this is one.
    fn jump_target(&self) -> Option<u64> {
        let mut words = self.text.split_whitespace();
        let mnemonic = words.next()?;
        if !mnemonic.starts_with('j') {
            return None;
        }
        u64::from_str_radix(words.next()?, 16).ok()
    }

    /// A 256- or 512-bit store into the stack frame: a register spill (or a
    /// write to a stack buffer, which the checked loops must not do either).
    fn is_vector_stack_store(&self) -> bool {
        let Some((_, dst)) = self.text.rsplit_once(',') else {
            return false;
        };
        self.text.starts_with("vmov")
            && dst.contains("(%rsp")
            && (self.text.contains("%ymm") || self.text.contains("%zmm"))
    }

    /// Shuffle-port work the paired stream exists to remove (the `zmm`
    /// cross-lane permutes and lane moves included).
    fn is_lane_fixup(&self) -> bool {
        [
            "vpunpck",
            "vperm2i128",
            "vpermq",
            "vpalignr",
            "vpermt2",
            "vpermi2",
            "vshufi",
            "vinserti",
            "vextracti",
        ]
        .iter()
        .any(|m| self.text.starts_with(m))
    }

    /// A 64-byte load of data, from outside the stack frame and the
    /// constant pool: in the multi-tile `vpermb` kernel's quad loop, a
    /// row's table or a tile's index vector.
    fn is_data_load(&self) -> bool {
        let Some((src, dst)) = self.text.rsplit_once(',') else {
            return false;
        };
        self.text.starts_with("vmov")
            && src.contains('(')
            && !src.contains("%rsp")
            && !src.contains("%rip")
            && dst.contains("%zmm")
    }

    /// A vector register spill or reload: any access to the stack frame
    /// that names a `ymm` or `zmm`.
    fn is_vector_stack_access(&self) -> bool {
        self.text.contains("(%rsp") && (self.text.contains("%ymm") || self.text.contains("%zmm"))
    }

    /// The `n`-th operand (AT&T order, from 0) of this instruction.
    fn operand(&self, n: usize) -> Option<&str> {
        let (_, ops) = self.text.split_once(char::is_whitespace)?;
        ops.trim().split(',').nth(n)
    }

    /// Whether every vector register this instruction names is a `zmm`.
    fn zmm_only(&self) -> bool {
        !self.text.contains("%ymm") && !self.text.contains("%xmm")
    }

    /// The nibble split of a weight load: `vpsrlw $4` on `reg` registers.
    fn is_nibble_split(&self, reg: &str) -> bool {
        self.is("vpsrlw") && self.text.contains("$0x4,") && self.text.contains(reg)
    }
}

/// Runs the paired kernels of the family `isa` once (so the linker keeps
/// them) and returns the disassembly of every function whose demangled
/// name contains `name`.
fn disassemble(isa: Isa, name: &str) -> Option<Vec<Vec<Insn>>> {
    if cfg!(debug_assertions) {
        println!("skipped: debug build (run with --release; the loops are unoptimized)");
        return None;
    }
    let Ok(ctx) = ExecCtx::with_isa(1, isa) else {
        println!("skipped: the {isa} kernels do not run on this host");
        return None;
    };
    let w: Vec<f32> = (0..64 * 128).map(|i| (i as f32 * 0.37).sin()).collect();
    let act: Vec<f32> = (0..5 * 128).map(|i| (i as f32 * 0.11).cos()).collect();
    let lin = TmacLinear::from_f32(&w, 64, 128, 2, 32, KernelOpts::tmac()).unwrap();
    let mut out = vec![0f32; 5 * 64];
    lin.gemv(&act[..128], &mut out[..64], &ctx).unwrap();
    for n in [3, 5] {
        lin.gemm(&act[..n * 128], n, &mut out[..n * 64], &ctx)
            .unwrap();
    }
    std::hint::black_box(&out);

    let exe = std::env::current_exe().unwrap();
    let dump = match Command::new("/usr/bin/objdump")
        .args(["-d", "--no-show-raw-insn", "-C"])
        .arg(&exe)
        .output()
    {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
        other => {
            println!("skipped: /usr/bin/objdump unavailable ({other:?})");
            return None;
        }
    };
    let mut funcs = Vec::new();
    let mut keep = false;
    for line in dump.lines() {
        if line.ends_with(">:") {
            keep = line.contains(name);
            if keep {
                funcs.push(Vec::new());
            }
        } else if keep {
            let Some((addr, text)) = line.trim_start().split_once(":\t") else {
                continue;
            };
            if let Ok(addr) = u64::from_str_radix(addr, 16) {
                let text = text.trim().to_string();
                funcs.last_mut().unwrap().push(Insn { addr, text });
            }
        }
    }
    assert!(!funcs.is_empty(), "no `{name}` symbol in the test binary");
    Some(funcs)
}

/// The loops of a function as index ranges `[head, back-edge]`, from its
/// backward jumps.
fn loops(f: &[Insn]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, insn) in f.iter().enumerate() {
        let Some(target) = insn.jump_target() else {
            continue;
        };
        if target <= insn.addr {
            if let Some(head) = f.iter().position(|x| x.addr == target) {
                out.push((head, i));
            }
        }
    }
    out
}

fn count(body: &[Insn], mnemonic: &str) -> usize {
    body.iter().filter(|i| i.is(mnemonic)).count()
}

fn listing(body: &[Insn]) -> String {
    body.iter()
        .map(|i| format!("  {:x}: {}\n", i.addr, i.text))
        .collect()
}

/// Innermost loops (no other loop nested inside) that contain `mnemonic`.
fn innermost_with<'a>(f: &'a [Insn], mnemonic: &str) -> Vec<&'a [Insn]> {
    let all = loops(f);
    all.iter()
        .filter(|&&(h, t)| {
            !all.iter()
                .any(|&(h2, t2)| (h2, t2) != (h, t) && h <= h2 && t2 <= t)
        })
        .map(|&(h, t)| &f[h..=t])
        .filter(|body| count(body, mnemonic) > 0)
        .collect()
}

#[test]
fn gemv_loop_is_two_shuffles_per_weight_load() {
    let Some(funcs) = disassemble(Isa::Avx2, "avx2::mtile_paired_bits") else {
        return;
    };
    let mut w2_hot_loops = 0;
    for f in &funcs {
        // Every 32-byte weight load is nibble-split by exactly one
        // `vpsrlw $4`; count the lookups against those.
        for body in innermost_with(f, "vpshufb") {
            let loads = body.iter().filter(|i| i.is_nibble_split("%ymm")).count();
            if loads == 0 {
                continue;
            }
            let dump = listing(body);
            assert_eq!(
                count(body, "vpshufb"),
                2 * loads,
                "lookups per load:\n{dump}"
            );
            assert!(
                !body.iter().any(Insn::is_lane_fixup),
                "lane fix-up:\n{dump}"
            );
            assert!(
                !body.iter().any(Insn::is_vector_stack_store),
                "spill:\n{dump}"
            );
            // The 2-bit body: two loads and one combine constant
            // (`vpmaddubsw` per lookup, nothing else widening).
            if loads == 2 && count(body, "vpmaddubsw") == 4 {
                assert_eq!(count(body, "vpaddw"), 4, "accumulates:\n{dump}");
                assert_eq!(count(body, "vbroadcasti128"), 0, "table operand:\n{dump}");
                w2_hot_loops += 1;
            }
        }
    }
    assert!(
        w2_hot_loops >= 1,
        "no 2-bit GEMV loop found in {} symbols",
        funcs.len()
    );
}

/// The table build's per-k-group loop stays in vector registers: the 16
/// entries are two `ymm` of `vaddps` results and their abs-max one running
/// `vmaxps`, so a scalar add means the build fell back to per-entry code,
/// and a `ymm` store to the stack means a spill.
#[test]
fn table_build_loop_is_vector_only() {
    let Some(funcs) = disassemble(Isa::Avx2, "avx2::block_entries") else {
        return;
    };
    let mut build_loops = 0;
    for f in &funcs {
        for body in innermost_with(f, "vmaxps") {
            let dump = listing(body);
            assert!(
                !body.iter().any(|i| i.is("vaddss") || i.is("addss")),
                "scalar add:\n{dump}"
            );
            assert!(
                !body.iter().any(Insn::is_vector_stack_store),
                "spill:\n{dump}"
            );
            build_loops += 1;
        }
    }
    assert!(
        build_loops >= 1,
        "no table build loop found in {} symbols",
        funcs.len()
    );
}

#[test]
fn gemm_row_loop_keeps_accumulators_in_registers() {
    let Some(funcs) = disassemble(Isa::Avx2, "avx2::gemm_mtile_bits") else {
        return;
    };
    let mut w2_row_loops = 0;
    for f in &funcs {
        let all = loops(f);
        for body in innermost_with(f, "vpshufb") {
            // The k-group-pair loop looks up decoded indices straight from
            // memory; skip the loops that split nibbles themselves.
            if count(body, "vpsrlw") > 0 {
                continue;
            }
            let dump = listing(body);
            assert!(
                !body.iter().any(Insn::is_lane_fixup),
                "lane fix-up:\n{dump}"
            );
            assert!(
                !body.iter().any(Insn::is_vector_stack_store),
                "spill:\n{dump}"
            );
            // 2-bit: 4 lookups per pair — 16 per (row, scale block) over
            // the 4 pairs of a 32-wide group.
            let two_bit = count(body, "vpshufb") == 4 && count(body, "vpmaddubsw") == 4;
            if !two_bit {
                continue;
            }
            // The row loop: the smallest loop around it that also folds
            // into `f32`. Nothing in it may spill a vector.
            let (inner_head, inner_tail) = (body[0].addr, body[body.len() - 1].addr);
            let row = all
                .iter()
                .map(|&(h, t)| &f[h..=t])
                .filter(|l| l[0].addr <= inner_head && inner_tail <= l[l.len() - 1].addr)
                .filter(|l| count(l, "vcvtdq2ps") > 0)
                .min_by_key(|l| l.len());
            let Some(row) = row else {
                continue;
            };
            assert!(
                !row.iter().any(Insn::is_vector_stack_store),
                "row loop spills:\n{}",
                listing(row)
            );
            w2_row_loops += 1;
        }
    }
    assert!(
        w2_row_loops >= 1,
        "no 2-bit mpGEMM row loop found in {} symbols",
        funcs.len()
    );
}

/// The `zmm` GEMV loop: per 64-byte weight load one `vpshufb zmm` per 64
/// lookups — two per plane pair, one per lone plane — every shuffle on
/// `zmm`, no lane fix-ups, no spills.
#[test]
fn zmm_gemv_loop_is_one_shuffle_per_64_lookups() {
    let Some(funcs) = disassemble(Isa::Avx512, "avx512::mtile_paired_bits") else {
        return;
    };
    let mut w2_hot_loops = 0;
    for f in &funcs {
        for body in innermost_with(f, "vpshufb") {
            // Plane-pair loads split with a `vpsrlw $4`; a lone plane's
            // `[lo | hi]` shifts only its upper half (a masked `vpsrlw`, or
            // the `vpsrlvw` the compiler may turn it into).
            let pairs = body
                .iter()
                .filter(|i| i.is_nibble_split("%zmm") && !i.text.contains("{%k"))
                .count();
            let lone = body
                .iter()
                .filter(|i| i.is_nibble_split("%zmm") || i.is("vpsrlvw"))
                .count()
                - pairs;
            if pairs + lone == 0 {
                continue;
            }
            let dump = listing(body);
            let shuffles: Vec<_> = body.iter().filter(|i| i.is("vpshufb")).collect();
            assert!(shuffles.iter().all(|i| i.zmm_only()), "ymm lookup:\n{dump}");
            assert_eq!(
                shuffles.len(),
                2 * pairs + lone,
                "lookups per load:\n{dump}"
            );
            assert!(
                !body.iter().any(Insn::is_lane_fixup),
                "lane fix-up:\n{dump}"
            );
            assert!(
                !body.iter().any(Insn::is_vector_stack_store),
                "spill:\n{dump}"
            );
            // Even widths: one `vpmaddubsw` and one `vpaddw` per lookup,
            // and the 2-bit body one `vbroadcasti64x4` table operand per
            // load.
            if lone == 0 {
                assert_eq!(count(body, "vpmaddubsw"), 2 * pairs, "widens:\n{dump}");
                assert_eq!(count(body, "vpaddw"), 2 * pairs, "accumulates:\n{dump}");
                if count(body, "vbroadcasti64x4") == pairs {
                    w2_hot_loops += 1;
                }
            }
        }
    }
    assert!(
        w2_hot_loops >= 1,
        "no 2-bit zmm GEMV loop found in {} symbols",
        funcs.len()
    );
}

/// The register-resident `vpermb` kernel (2–4 rows): its quad loop builds
/// each index vector once, in registers, and looks it up against every
/// row's table, so per quad it issues `2·bits` index builds (`vpermt2b`)
/// and `2·bits·R` `vpermb` and `vpdpbusd`, with the `R` tables in `R`
/// registers, and it touches the stack for no vector. At W2 the block loop
/// around it keeps every accumulator and output in registers too.
///
/// The instances carry no generic arguments in their symbols, so each loop
/// reads its own: `bits` = the `select` operands of its `vpternlogd`
/// (one per source), `R` = lookups per index build.
#[test]
fn zmm_regs_quad_loop_is_register_resident() {
    let Some(funcs) = disassemble(Isa::Avx512, "avx512::gemm_regs_bits") else {
        return;
    };
    let mut w2_rows = Vec::new();
    for f in &funcs {
        let all = loops(f);
        for body in innermost_with(f, "vpermb") {
            let dump = listing(body);
            let operands = |m: &str, n: usize| {
                let mut v: Vec<_> = body
                    .iter()
                    .filter(|i| i.is(m))
                    .map(|i| i.operand(n))
                    .collect();
                v.sort();
                v.dedup();
                v.len()
            };
            let (lookups, combines) = (count(body, "vpermb"), count(body, "vpdpbusd"));
            let builds = count(body, "vpermt2b") + count(body, "vpermi2b");
            let bits = operands("vpternlogd", 1);
            assert!(
                builds > 0
                    && (1..=4).contains(&bits)
                    && count(body, "vpternlogd").is_multiple_of(2 * bits),
                "index builds:\n{dump}"
            );
            let quads = count(body, "vpternlogd") / (2 * bits);
            let rows = lookups / builds;
            assert!((2..=4).contains(&rows), "rows per index vector:\n{dump}");
            assert_eq!(builds, 2 * bits * quads, "index builds per quad:\n{dump}");
            assert_eq!(
                lookups,
                2 * bits * rows * quads,
                "lookups per quad:\n{dump}"
            );
            assert_eq!(combines, lookups, "a combine per lookup:\n{dump}");
            assert_eq!(
                operands("vpermb", 0),
                rows,
                "one table register a row:\n{dump}"
            );
            assert!(
                body.iter()
                    .filter(|i| i.is("vpermb") || i.is("vpdpbusd"))
                    .all(Insn::zmm_only),
                "ymm lookup or combine:\n{dump}"
            );
            assert!(
                !body.iter().any(Insn::is_vector_stack_access),
                "the quad loop spills:\n{dump}"
            );
            if bits != 2 {
                continue;
            }
            let (inner_head, inner_tail) = (body[0].addr, body[body.len() - 1].addr);
            let block = all
                .iter()
                .map(|&(h, t)| &f[h..=t])
                .filter(|l| l[0].addr <= inner_head && inner_tail <= l[l.len() - 1].addr)
                .filter(|l| count(l, "vcvtdq2ps") > 0)
                .min_by_key(|l| l.len())
                .expect("a block loop around the quad loop");
            assert!(
                !block.iter().any(Insn::is_vector_stack_access),
                "the W2 block loop spills:\n{}",
                listing(block)
            );
            w2_rows.push(rows);
        }
    }
    w2_rows.sort();
    w2_rows.dedup();
    assert_eq!(w2_rows, [2, 3, 4], "W2 quad loops found, by row count");
}

/// The multi-tile `vpermb` kernel (5 rows and more, `gemm_run_bits`): per
/// quad its row loop loads each row's table once and looks it up against
/// every tile's index vectors, `MT·2·bits` index loads per two table loads
/// in the row-pair loop, with `vpermb zmm` and `vpdpbusd zmm` only, in
/// equal counts, no `vpshufb`, `vpmaddubsw` or widening, no lane fix-up,
/// and no vector stack access; at W2 the row-pair loop around it (the fold
/// included) stores nothing to the stack either.
///
/// The instances carry no generic arguments in their symbols, so each
/// row-pair loop reads its own: every `i32` accumulator register takes
/// one `vpdpbusd` per source, `bits` of them, and there are `2·MT` per
/// row. The instances found must be exactly the ones `avx512::mtile`
/// dispatches, `MT` 1–4 (`TILE_RUN`) at W1–W4 — a run that quietly fell
/// back to one tile a call would show as a missing instance or a lower
/// load ratio.
#[test]
fn zmm_quad_row_loop_is_vpermb_and_vpdpbusd() {
    let Some(funcs) = disassemble(Isa::Avx512, "avx512::gemm_run_bits") else {
        return;
    };
    let mut instances = Vec::new();
    // The instances, not the closures inside them.
    for f in funcs.iter().filter(|f| count(f, "vpermb") > 0) {
        let all = loops(f);
        let mut found = Vec::new();
        for body in innermost_with(f, "vpermb") {
            let dump = listing(body);
            let (lookups, combines) = (count(body, "vpermb"), count(body, "vpdpbusd"));
            assert!(
                body.iter()
                    .filter(|i| i.is("vpermb") || i.is("vpdpbusd"))
                    .all(Insn::zmm_only),
                "ymm lookup or combine:\n{dump}"
            );
            assert_eq!(lookups, combines, "a combine per lookup:\n{dump}");
            for m in ["vpshufb", "vpmaddubsw", "vpmovsxwd", "vpaddw"] {
                assert_eq!(count(body, m), 0, "{m} in the lookup loop:\n{dump}");
            }
            assert!(
                !body.iter().any(Insn::is_lane_fixup),
                "lane fix-up:\n{dump}"
            );
            assert!(
                !body.iter().any(Insn::is_vector_stack_access),
                "the quad loop touches the stack:\n{dump}"
            );
            let distinct = |m: &str, n: usize| {
                let mut v: Vec<_> = body
                    .iter()
                    .filter(|i| i.is(m))
                    .map(|i| i.operand(n))
                    .collect();
                v.sort();
                v.dedup();
                v.len()
            };
            // Rows: one table register each; every other 64-byte load is an
            // index vector, looked up once per row.
            let rows = distinct("vpermb", 0);
            let loads = body.iter().filter(|i| i.is_data_load()).count();
            assert!((1..=2).contains(&rows) && loads > rows, "tables:\n{dump}");
            let index_loads = loads - rows;
            assert_eq!(
                lookups,
                rows * index_loads,
                "each index vector once, against every row's table:\n{dump}"
            );
            if rows != 2 {
                continue;
            }
            let accs = distinct("vpdpbusd", 2);
            let (bits, mt) = (combines / accs, accs / 4);
            assert!(
                accs % 4 == 0 && combines % accs == 0,
                "2·MT accumulators a row:\n{dump}"
            );
            assert_eq!(
                index_loads,
                mt * 2 * bits,
                "MT·2·bits index loads per two table loads:\n{dump}"
            );
            found.push((bits, mt));
            if bits != 2 {
                continue;
            }
            let (inner_head, inner_tail) = (body[0].addr, body[body.len() - 1].addr);
            let pair = all
                .iter()
                .map(|&(h, t)| &f[h..=t])
                .filter(|l| l[0].addr <= inner_head && inner_tail <= l[l.len() - 1].addr)
                .filter(|l| count(l, "vcvtdq2ps") > 0)
                .min_by_key(|l| l.len())
                .expect("a row-pair loop around the quad loop");
            assert!(
                !pair.iter().any(Insn::is_vector_stack_store),
                "the W2 row-pair loop spills:\n{}",
                listing(pair)
            );
        }
        found.sort();
        found.dedup();
        assert_eq!(found.len(), 1, "one (bits, MT) per instance: {found:?}");
        instances.push(found[0]);
    }
    instances.sort();
    let want: Vec<(usize, usize)> = (1..=4)
        .flat_map(|bits| (1..=4).map(move |mt| (bits, mt)))
        .collect();
    assert_eq!(instances, want, "the (bits, MT) instances");
}
