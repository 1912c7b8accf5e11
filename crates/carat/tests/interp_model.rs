//! The block-at-a-time interpreter loop against the one-instruction-per-
//! step loop it replaced.
//!
//! `oracle` holds the earlier interpreter's `Frame`, `run` and `step`
//! verbatim (one `Vec` pair of registers per frame, one instruction per
//! call of `step`), running on the same `Memory`. Every program of
//! `suite(1)` and `suite(2)` runs under `NullHooks`, under `CaratRuntime`
//! (on the naive- and the optimised-instrumented module) and under
//! `PagingHooks`, in fuel slices of 1, 7 and 64 cycles and unbounded. Both
//! interpreters must return the same `ExecStatus` and `ExecStats` after
//! every slice, and finish with the same result, resident pages, hook
//! state and live memory. A slice of one cycle exits before nearly every
//! instruction, so any exit that leaves `ip`, the instruction count or the
//! cycle count different from stepping shows up as a diverging slice.

use interweave_carat::overhead::PagingHooks;
use interweave_carat::{instrument, CaratRuntime};
use interweave_ir::interp::{ExecStatus, Interp, InterpConfig, Memory, NullHooks, RuntimeHooks};
use interweave_ir::programs::suite;
use interweave_ir::types::Val;
use interweave_ir::{BinOp, CmpOp, FuncId, FunctionBuilder, Intrinsic, Module};

mod oracle {
    use interweave_ir::interp::{
        AllocId, ExecStats, ExecStatus, HookAction, InterpConfig, Memory, RuntimeHooks, Trap,
    };
    use interweave_ir::{BinOp, BlockId, CmpOp, FuncId, Inst, Intrinsic, Module, Reg, Term, Val};

    /// One call frame.
    #[derive(Debug, Clone)]
    pub struct Frame {
        func: FuncId,
        block: BlockId,
        ip: usize,
        /// Register file.
        pub regs: Vec<Val>,
        /// Pointer provenance of each register.
        pub prov: Vec<Option<AllocId>>,
        /// Register to receive the callee's return value.
        ret_to: Option<Reg>,
    }

    impl Frame {
        #[inline]
        fn val(&self, r: Reg) -> Val {
            self.regs[r.0 as usize]
        }

        #[inline]
        fn get(&self, r: Reg) -> (Val, Option<AllocId>) {
            (self.regs[r.0 as usize], self.prov[r.0 as usize])
        }

        #[inline]
        fn set(&mut self, d: Reg, v: Val, p: Option<AllocId>) {
            self.regs[d.0 as usize] = v;
            self.prov[d.0 as usize] = p;
        }
    }

    /// The earlier interpreter's state: one frame stack of register files.
    pub struct Interp {
        cfg: InterpConfig,
        pub mem: Memory,
        frames: Vec<Frame>,
        pub stats: ExecStats,
        done_value: Option<Val>,
    }

    impl Interp {
        pub fn new(cfg: InterpConfig) -> Interp {
            let mem = Memory::new(&cfg);
            Interp {
                cfg,
                mem,
                frames: Vec::new(),
                stats: ExecStats::default(),
                done_value: None,
            }
        }

        /// Begin a call to `f` with integer/float arguments. Replaces any
        /// existing call stack.
        pub fn start(&mut self, module: &Module, f: FuncId, args: &[Val]) {
            let func = module.func(f);
            assert_eq!(
                args.len(),
                func.n_params,
                "{} expects {} args",
                func.name,
                func.n_params
            );
            let mut regs = vec![Val::I(0); func.n_regs];
            let prov = vec![None; func.n_regs];
            regs[..args.len()].copy_from_slice(args);
            self.frames = vec![Frame {
                func: f,
                block: BlockId(0),
                ip: 0,
                regs,
                prov,
                ret_to: None,
            }];
            self.done_value = None;
        }

        pub fn result(&self) -> Option<Val> {
            self.done_value
        }

        /// Run until completion, yield, trap, or `fuel` cycles are consumed.
        /// Resumable: calling `run` again continues where the last call left
        /// off (after a yield or out-of-fuel return).
        pub fn run(
            &mut self,
            module: &Module,
            hooks: &mut dyn RuntimeHooks,
            fuel: u64,
        ) -> ExecStatus {
            let start_cycles = self.stats.cycles;
            loop {
                if self.frames.is_empty() {
                    return ExecStatus::Done(self.done_value);
                }
                if self.stats.cycles - start_cycles >= fuel {
                    return ExecStatus::OutOfFuel;
                }
                match self.step(module, hooks) {
                    StepOut::Continue => {}
                    StepOut::Yield => return ExecStatus::Yielded,
                    StepOut::Trap(t) => return ExecStatus::Trapped(t),
                }
            }
        }

        /// One instruction (or terminator). Decodes by reference straight out of
        /// the module — no per-instruction clone — with `self` split into
        /// disjoint field borrows so frame mutation, memory traffic, and cycle
        /// accounting coexist with the borrowed instruction.
        fn step(&mut self, module: &Module, hooks: &mut dyn RuntimeHooks) -> StepOut {
            let Interp {
                cfg,
                mem,
                frames,
                stats,
                done_value,
            } = self;
            let fi = frames.len() - 1;
            let (func_id, block, ip) = {
                let fr = &frames[fi];
                (fr.func, fr.block, fr.ip)
            };
            let func = module.func(func_id);
            let blk = &func.blocks[block.index()];

            if ip >= blk.insts.len() {
                // Execute the terminator.
                stats.insts += 1;
                match blk.term.as_ref().expect("verified IR") {
                    Term::Br(t) => {
                        stats.cycles += cfg.cost_branch;
                        let fr = &mut frames[fi];
                        fr.block = *t;
                        fr.ip = 0;
                    }
                    Term::CondBr(c, t, e) => {
                        stats.cycles += cfg.cost_branch;
                        let fr = &mut frames[fi];
                        fr.block = if fr.val(*c).is_true() { *t } else { *e };
                        fr.ip = 0;
                    }
                    Term::Ret(v) => {
                        stats.cycles += cfg.cost_ret;
                        let fr = &frames[fi];
                        let (val, prov) = match v {
                            Some(r) => {
                                let (v, p) = fr.get(*r);
                                (Some(v), p)
                            }
                            None => (None, None),
                        };
                        let ret_to = fr.ret_to;
                        frames.pop();
                        match frames.last_mut() {
                            Some(caller) => {
                                if let Some(dst) = ret_to {
                                    caller.set(dst, val.unwrap_or(Val::I(0)), prov);
                                }
                            }
                            None => *done_value = val,
                        }
                    }
                }
                return StepOut::Continue;
            }

            let inst = &blk.insts[ip];
            frames[fi].ip += 1;
            stats.insts += 1;

            match inst {
                Inst::ConstI(d, v) => {
                    stats.cycles += cfg.cost_arith;
                    frames[fi].set(*d, Val::I(*v), None);
                }
                Inst::ConstF(d, v) => {
                    stats.cycles += cfg.cost_arith;
                    frames[fi].set(*d, Val::F(*v), None);
                }
                Inst::Mov(d, s) => {
                    stats.cycles += cfg.cost_arith;
                    let fr = &mut frames[fi];
                    let (v, p) = fr.get(*s);
                    fr.set(*d, v, p);
                }
                Inst::Bin(d, op, a, b) => {
                    stats.cycles += cfg.cost_arith;
                    let fr = &mut frames[fi];
                    let (va, vb) = (fr.val(*a), fr.val(*b));
                    let val = match op {
                        BinOp::Add => Val::I(va.as_i().wrapping_add(vb.as_i())),
                        BinOp::Sub => Val::I(va.as_i().wrapping_sub(vb.as_i())),
                        BinOp::Mul => Val::I(va.as_i().wrapping_mul(vb.as_i())),
                        BinOp::Div => {
                            if vb.as_i() == 0 {
                                return StepOut::Trap(Trap::DivByZero);
                            }
                            Val::I(va.as_i().wrapping_div(vb.as_i()))
                        }
                        BinOp::Rem => {
                            if vb.as_i() == 0 {
                                return StepOut::Trap(Trap::DivByZero);
                            }
                            Val::I(va.as_i().wrapping_rem(vb.as_i()))
                        }
                        BinOp::And => Val::I(va.as_i() & vb.as_i()),
                        BinOp::Or => Val::I(va.as_i() | vb.as_i()),
                        BinOp::Xor => Val::I(va.as_i() ^ vb.as_i()),
                        BinOp::Shl => Val::I(va.as_i().wrapping_shl(vb.as_i() as u32)),
                        BinOp::Shr => Val::I(va.as_i().wrapping_shr(vb.as_i() as u32)),
                        BinOp::FAdd => Val::F(va.as_f() + vb.as_f()),
                        BinOp::FSub => Val::F(va.as_f() - vb.as_f()),
                        BinOp::FMul => Val::F(va.as_f() * vb.as_f()),
                        BinOp::FDiv => Val::F(va.as_f() / vb.as_f()),
                    };
                    // Pointer arithmetic through Add/Sub keeps provenance when
                    // exactly one operand is a pointer.
                    let p = match op {
                        BinOp::Add | BinOp::Sub => {
                            match (fr.prov[a.0 as usize], fr.prov[b.0 as usize]) {
                                (Some(p), None) => Some(p),
                                (None, Some(p)) => Some(p),
                                _ => None,
                            }
                        }
                        _ => None,
                    };
                    fr.set(*d, val, p);
                }
                Inst::Cmp(d, op, a, b) => {
                    stats.cycles += cfg.cost_arith;
                    let fr = &mut frames[fi];
                    let (va, vb) = (fr.val(*a), fr.val(*b));
                    let r = match (va, vb) {
                        (Val::F(_), _) | (_, Val::F(_)) => {
                            let (x, y) = (va.as_f(), vb.as_f());
                            match op {
                                CmpOp::Eq => x == y,
                                CmpOp::Ne => x != y,
                                CmpOp::Lt => x < y,
                                CmpOp::Le => x <= y,
                                CmpOp::Gt => x > y,
                                CmpOp::Ge => x >= y,
                            }
                        }
                        (Val::I(x), Val::I(y)) => match op {
                            CmpOp::Eq => x == y,
                            CmpOp::Ne => x != y,
                            CmpOp::Lt => x < y,
                            CmpOp::Le => x <= y,
                            CmpOp::Gt => x > y,
                            CmpOp::Ge => x >= y,
                        },
                    };
                    fr.set(*d, Val::I(r as i64), None);
                }
                Inst::Select(d, c, a, b) => {
                    stats.cycles += cfg.cost_arith;
                    let fr = &mut frames[fi];
                    let (v, p) = if fr.val(*c).is_true() {
                        fr.get(*a)
                    } else {
                        fr.get(*b)
                    };
                    fr.set(*d, v, p);
                }
                Inst::Alloc(d, s) => {
                    stats.cycles += cfg.cost_alloc;
                    let size = frames[fi].val(*s).as_i().max(0) as u64;
                    match mem.alloc(size) {
                        Ok(a) => {
                            hooks.on_alloc(a);
                            frames[fi].set(*d, Val::I(a.base as i64), Some(a.id));
                        }
                        Err(t) => return StepOut::Trap(t),
                    }
                }
                Inst::Free(p) => {
                    stats.cycles += cfg.cost_free;
                    let addr = frames[fi].val(*p).as_ptr();
                    match mem.free(addr) {
                        Ok(a) => hooks.on_free(a),
                        Err(t) => return StepOut::Trap(t),
                    }
                }
                Inst::Load(d, a, off) => {
                    stats.cycles += cfg.cost_load;
                    stats.loads += 1;
                    let addr = (frames[fi].val(*a).as_i() + off) as u64;
                    match hooks.check_access(addr, false, stats.cycles) {
                        Ok(extra) => stats.cycles += extra,
                        Err(t) => return StepOut::Trap(t),
                    }
                    match mem.load(addr) {
                        Ok((v, p)) => frames[fi].set(*d, v, p),
                        Err(t) => return StepOut::Trap(t),
                    }
                }
                Inst::Store(a, off, v) => {
                    stats.cycles += cfg.cost_store;
                    stats.stores += 1;
                    let addr = (frames[fi].val(*a).as_i() + off) as u64;
                    match hooks.check_access(addr, true, stats.cycles) {
                        Ok(extra) => stats.cycles += extra,
                        Err(t) => return StepOut::Trap(t),
                    }
                    let (val, p) = frames[fi].get(*v);
                    if let Err(t) = mem.store(addr, val, p) {
                        return StepOut::Trap(t);
                    }
                }
                Inst::Gep(d, b, i, scale, off) => {
                    stats.cycles += cfg.cost_gep;
                    let fr = &mut frames[fi];
                    let base = fr.val(*b).as_i();
                    let idx = fr.val(*i).as_i();
                    let addr = base
                        .wrapping_add(idx.wrapping_mul(*scale))
                        .wrapping_add(*off);
                    let p = fr.prov[b.0 as usize];
                    fr.set(*d, Val::I(addr), p);
                }
                Inst::Call(dst, g, args) => {
                    stats.cycles += cfg.cost_call;
                    if frames.len() >= cfg.max_depth {
                        return StepOut::Trap(Trap::StackOverflow);
                    }
                    let callee = module.func(*g);
                    debug_assert_eq!(
                        args.len(),
                        callee.n_params,
                        "arity mismatch calling {}",
                        callee.name
                    );
                    let mut regs = vec![Val::I(0); callee.n_regs];
                    let mut prov = vec![None; callee.n_regs];
                    let caller = &frames[fi];
                    for (i, &r) in args.iter().enumerate() {
                        let (v, p) = caller.get(r);
                        regs[i] = v;
                        prov[i] = p;
                    }
                    frames.push(Frame {
                        func: *g,
                        block: BlockId(0),
                        ip: 0,
                        regs,
                        prov,
                        ret_to: *dst,
                    });
                }
                Inst::Intr(dst, which, args) => {
                    let which = *which;
                    // Intrinsics take at most a handful of arguments; marshal
                    // them through a stack buffer so the hot path stays
                    // allocation-free.
                    let mut buf = [Val::I(0); 4];
                    let mut heap: Vec<Val> = Vec::new();
                    let argv: &[Val] = {
                        let fr = &frames[fi];
                        if args.len() <= buf.len() {
                            for (i, &r) in args.iter().enumerate() {
                                buf[i] = fr.val(r);
                            }
                            &buf[..args.len()]
                        } else {
                            heap.extend(args.iter().map(|&r| fr.val(r)));
                            &heap
                        }
                    };
                    if which.is_injected() {
                        stats.injected_intrinsics += 1;
                    }
                    let action = hooks.intrinsic(which, argv, mem, stats.cycles);
                    if which == Intrinsic::Trace {
                        if let Some(v) = argv.first() {
                            stats.trace.push(v.as_i());
                        }
                    }
                    match action {
                        HookAction::Continue { value, cycles } => {
                            stats.cycles += cycles;
                            if which.is_injected() {
                                stats.injected_cycles += cycles;
                            }
                            if let Some(d) = dst {
                                frames[fi].set(*d, value.unwrap_or(Val::I(0)), None);
                            }
                        }
                        HookAction::Yield { cycles } => {
                            stats.cycles += cycles;
                            if which.is_injected() {
                                stats.injected_cycles += cycles;
                            }
                            if let Some(d) = dst {
                                frames[fi].set(*d, Val::I(0), None);
                            }
                            return StepOut::Yield;
                        }
                        HookAction::Trap(t) => return StepOut::Trap(t),
                    }
                }
            }
            StepOut::Continue
        }
    }

    enum StepOut {
        Continue,
        Yield,
        Trap(Trap),
    }
}

/// Fuel per `run` call: one cycle (an exit before nearly every
/// instruction), two odd slice lengths, and the whole run.
const FUELS: [u64; 4] = [1, 7, 64, u64::MAX / 4];

/// A value as exact `(is_float, bits)`, so NaNs compare by representation.
fn bits(v: Val) -> (bool, u64) {
    match v {
        Val::I(i) => (false, i as u64),
        Val::F(f) => (true, f.to_bits()),
    }
}

/// Same allocations, free list and contents at every live byte address.
fn assert_same_memory(name: &str, a: &Memory, b: &Memory) {
    assert_eq!(a.allocations(), b.allocations(), "{name}: allocations");
    assert_eq!(a.free_blocks(), b.free_blocks(), "{name}: free list");
    assert_eq!(a.live_bytes, b.live_bytes, "{name}: live bytes");
    assert_eq!(a.resident_pages(), b.resident_pages(), "{name}: pages");
    for al in a.allocations() {
        for addr in al.base..al.base + al.size {
            let (va, pa) = a.load(addr).expect("live");
            let (vb, pb) = b.load(addr).expect("live");
            assert_eq!((bits(va), pa), (bits(vb), pb), "{name}: word {addr:#x}");
        }
    }
}

/// Run `entry` on both interpreters in slices of `fuel` cycles, each under
/// its own hooks, and compare after every slice and at the end. Returns
/// the two hooks for the caller to compare.
#[allow(clippy::too_many_arguments)]
fn run_both<H: RuntimeHooks>(
    name: &str,
    m: &Module,
    entry: FuncId,
    args: &[Val],
    cfg: &InterpConfig,
    fuel: u64,
    mut new_hooks: H,
    mut old_hooks: H,
) -> (H, H) {
    let mut it = Interp::new(cfg.clone());
    it.start(m, entry, args);
    let mut or = oracle::Interp::new(cfg.clone());
    or.start(m, entry, args);
    let mut slice = 0u64;
    loop {
        let got = it.run(m, &mut new_hooks, fuel);
        let want = or.run(m, &mut old_hooks, fuel);
        assert_eq!(got, want, "{name}, fuel {fuel}, slice {slice}: status");
        assert_eq!(
            it.stats, or.stats,
            "{name}, fuel {fuel}, slice {slice}: stats"
        );
        if matches!(got, ExecStatus::Done(_) | ExecStatus::Trapped(_)) {
            break;
        }
        slice += 1;
    }
    assert_eq!(
        it.result().map(bits),
        or.result().map(bits),
        "{name}, fuel {fuel}: result"
    );
    assert_same_memory(&format!("{name}, fuel {fuel}"), &it.mem, &or.mem);
    (new_hooks, old_hooks)
}

#[test]
fn block_loop_matches_stepping_on_the_suite() {
    let cfg = InterpConfig::default();
    for p in suite(1).into_iter().chain(suite(2)) {
        let mut naive = p.module.clone();
        instrument(&mut naive, false);
        let mut opt = p.module.clone();
        instrument(&mut opt, true);
        for fuel in FUELS {
            let (m, e, a) = (&p.module, p.entry, &p.args[..]);
            run_both(&p.name, m, e, a, &cfg, fuel, NullHooks, NullHooks);
            for (kind, m) in [("naive", &naive), ("opt", &opt)] {
                let name = format!("{} ({kind} CARAT)", p.name);
                let (x, y) = run_both(
                    &name,
                    m,
                    e,
                    a,
                    &cfg,
                    fuel,
                    CaratRuntime::new(),
                    CaratRuntime::new(),
                );
                // Stats, tracked regions and the escape ledger.
                assert_eq!(format!("{x:?}"), format!("{y:?}"), "{name}: runtime state");
            }
            let name = format!("{} (paging)", p.name);
            let paging = || PagingHooks::new(64, 4096);
            let (x, y) = run_both(&name, m, e, a, &cfg, fuel, paging(), paging());
            let counts = |h: &PagingHooks| {
                (
                    h.model.misses,
                    h.model.hits,
                    h.model.faults,
                    h.model.charged,
                )
            };
            assert_eq!(counts(&x), counts(&y), "{name}: TLB counts");
        }
    }
}

#[test]
fn stack_overflow_exits_identically() {
    // f(n) = f(n + 1) + 1, with a load and a store per level: never
    // returns, so it overflows `max_depth` mid-call.
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("f", 1);
    let n = fb.param(0);
    let eight = fb.const_i(8);
    let p = fb.alloc(eight);
    fb.store(p, 0, n);
    let v = fb.load(p, 0);
    let one = fb.const_i(1);
    let next = fb.bin(BinOp::Add, v, one);
    let r = fb.call(FuncId(0), &[next]);
    let s = fb.bin(BinOp::Add, r, one);
    fb.ret(Some(s));
    m.add(fb.finish());
    for max_depth in [1, 2, 17] {
        let cfg = InterpConfig {
            max_depth,
            ..InterpConfig::default()
        };
        for fuel in FUELS {
            let name = format!("overflow at depth {max_depth}");
            run_both(
                &name,
                &m,
                FuncId(0),
                &[Val::I(0)],
                &cfg,
                fuel,
                NullHooks,
                NullHooks,
            );
        }
    }
}

#[test]
fn yields_exit_identically() {
    // main(n): for i in 0..n { s += g(i); yield }; return s, with
    // g(i) = i < 3 ? i * 3 : i - 1.
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("main", 1);
    let n = fb.param(0);
    let zero = fb.const_i(0);
    let i = fb.mov(zero);
    let s = fb.mov(zero);
    let head = fb.new_block();
    let body = fb.new_block();
    let exit = fb.new_block();
    fb.br(head);
    fb.switch_to(head);
    let c = fb.cmp(CmpOp::Lt, i, n);
    fb.cond_br(c, body, exit);
    fb.switch_to(body);
    let x = fb.call(FuncId(1), &[i]);
    fb.bin_to(s, BinOp::Add, s, x);
    fb.intr_void(Intrinsic::Yield, &[]);
    let one = fb.const_i(1);
    fb.bin_to(i, BinOp::Add, i, one);
    fb.br(head);
    fb.switch_to(exit);
    fb.ret(Some(s));
    m.add(fb.finish());
    let mut fb = FunctionBuilder::new("g", 1);
    let i = fb.param(0);
    let three = fb.const_i(3);
    let small = fb.cmp(CmpOp::Lt, i, three);
    let a = fb.new_block();
    let b = fb.new_block();
    fb.cond_br(small, a, b);
    fb.switch_to(a);
    let t = fb.bin(BinOp::Mul, i, three);
    fb.ret(Some(t));
    fb.switch_to(b);
    let one = fb.const_i(1);
    let u = fb.bin(BinOp::Sub, i, one);
    fb.ret(Some(u));
    m.add(fb.finish());
    let cfg = InterpConfig::default();
    for fuel in FUELS {
        let (x, y) = run_both(
            "yield loop",
            &m,
            FuncId(0),
            &[Val::I(9)],
            &cfg,
            fuel,
            CaratRuntime::new(),
            CaratRuntime::new(),
        );
        assert_eq!(format!("{x:?}"), format!("{y:?}"));
        assert!(x.stats.guards == 0 && y.stats.guards == 0);
    }
}
