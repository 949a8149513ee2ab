/**
 * @file
 * The paper's running example (Listing 2): a 4 x 16K matrix-vector
 * multiply using homomorphic rotations for the inner sums, written in
 * the DSL, executed on encrypted data by the op-graph executor,
 * checked against plaintext math (exit 1 on a mismatch), and compiled
 * for F1.
 */
#include <cstdio>

#include "compiler/compiler.h"
#include "runtime/op_graph_executor.h"

using namespace f1;

int
main()
{
    // A smaller instance (N = 2048, L = 4) so the software reference
    // runs instantly; the bench suite exercises the full 16K/L=16.
    const uint32_t n = 2048, level = 4, rows = 4;
    Program p(n, level, "matvec");
    int v = p.input();
    std::vector<int> outputs;
    std::vector<int> weight_handles;
    for (uint32_t r = 0; r < rows; ++r) {
        int w = p.inputPlain();
        weight_handles.push_back(w);
        int prod = p.mulPlain(v, w);
        for (uint32_t s = 0; (1u << s) < n / 2; ++s)
            prod = p.add(prod, p.rotate(prod, 1u << s));
        outputs.push_back(p.output(prod));
    }

    // Reference execution on real encrypted data (BGV).
    FheParams params;
    params.n = n;
    params.maxLevel = level;
    FheContext ctx(params);
    BgvScheme bgv(&ctx);
    OpGraphExecutor exec(p, &bgv);

    const uint64_t t = bgv.plainModulus();
    std::vector<uint64_t> vec(n);
    for (uint32_t i = 0; i < n; ++i)
        vec[i] = (i * 37 + 11) % 1000;
    RuntimeInputs in;
    in.bind(v, vec);
    std::vector<std::vector<uint64_t>> matrix;
    for (uint32_t r = 0; r < rows; ++r) {
        std::vector<uint64_t> row(n);
        for (uint32_t i = 0; i < n; ++i)
            row[i] = (r + 1) * (i % 17 + 1) % t;
        in.bind(weight_handles[r], row);
        matrix.push_back(std::move(row));
    }

    auto res = exec.execute(in);
    printf("software execution: %.1f ms\n", res.wallMs);

    bool ok = true;
    for (uint32_t r = 0; r < rows; ++r) {
        auto slots = bgv.decryptSlots(res.outputs.at(outputs[r]));
        // Expected: sum over the first row-half of vec[i]*row[i].
        uint64_t expect = 0;
        for (uint32_t i = 0; i < n / 2; ++i)
            expect = (expect + vec[i] * matrix[r][i]) % t;
        ok &= slots[0] == expect;
        printf("row %u dot-product: got %llu, expect %llu %s\n", r,
               (unsigned long long)slots[0],
               (unsigned long long)expect,
               slots[0] == expect ? "[ok]" : "[MISMATCH]");
    }

    // Compile for F1.
    F1Config cfg;
    auto compiled = compileProgram(p, cfg);
    printf("F1 simulated time: %.3f ms (vs %.1f ms in software: "
           "%.0fx)\n",
           compiled.schedule.timeMs(cfg), res.wallMs,
           res.wallMs / compiled.schedule.timeMs(cfg));
    return ok ? 0 : 1;
}
