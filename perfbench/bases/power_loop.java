static long power(int a, int n) {
    long result = 1;
    for (int i = 0; i < n; i = i + 1) {
        result = result * a;
    }
    return result;
}
